module r3bench/bench

go 1.22

require r3bench v0.0.0

replace r3bench => ../
