package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSumOfNonFiniteValues: SUM and AVG follow IEEE over values that are
// not finite, whatever order and lanes they arrive in — any NaN, or +Inf
// together with −Inf, gives NaN; one infinity gives that infinity — where
// such a sum used to panic inside math/big and take the process with it.
// At degree 2 the infinities of one group meet in different lanes.
func TestSumOfNonFiniteValues(t *testing.T) {
	huge := "1" + strings.Repeat("0", 300) + ".0" // squared, it overflows to +Inf
	for _, degree := range []int{1, 2} {
		t.Run(fmt.Sprintf("degree%d", degree), func(t *testing.T) {
			db := Open(Config{Parallel: degree})
			s := db.NewSession()
			mustExec(t, s, `CREATE TABLE f (id INTEGER PRIMARY KEY, grp INTEGER, v DECIMAL(10,2), pad CHAR(200))`)
			finite := 0.0 // grp 2's sum
			for lo := 0; lo < 1200; lo += 100 {
				var rows []string
				for id := lo; id < lo+100; id++ {
					rows = append(rows, fmt.Sprintf("(%d, %d, %d.5, 'x')", id, id%3, id))
					if id%3 == 2 {
						finite += float64(id) + 0.5
					}
				}
				mustExec(t, s, `INSERT INTO f VALUES `+strings.Join(rows, ", "))
			}
			mustExec(t, s, `UPDATE f SET v = `+huge+` * `+huge+` WHERE id = 0 OR id = 1`)
			mustExec(t, s, `UPDATE f SET v = 0 - `+huge+` * `+huge+` WHERE id = 1197`)
			before := db.Stats().ParallelRuns
			inf, nan := math.Inf(1), math.NaN()
			for _, c := range []struct {
				q    string
				want []float64
			}{
				{`SELECT SUM(v) FROM f`, []float64{nan}},
				{`SELECT AVG(v) FROM f`, []float64{nan}},
				{`SELECT SUM(v * 0) FROM f WHERE id < 5`, []float64{nan}},
				{`SELECT SUM(v), AVG(v) FROM f WHERE id < 1197`, []float64{inf, inf}},
				{`SELECT SUM(v) FROM f WHERE id > 1`, []float64{-inf}},
				{`SELECT grp, SUM(v) FROM f GROUP BY grp ORDER BY grp`, []float64{0, nan, 1, inf, 2, finite}},
				{`SELECT SUM(DISTINCT v) FROM f WHERE id < 2 OR id = 1197`, []float64{nan}},
			} {
				res := mustExec(t, s, c.q)
				var got []float64
				for _, r := range res.Rows {
					for _, v := range r {
						got = append(got, v.AsFloat())
					}
				}
				if !sameFloats(got, c.want) {
					t.Errorf("%s: %v, want %v", c.q, got, c.want)
				}
			}
			if degree > 1 && db.Stats().ParallelRuns == before {
				t.Errorf("no statement engaged parallel lanes")
			}
		})
	}
}

// sameFloats compares bit for bit, every NaN equal to every other.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}
