package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"time"

	"r3bench/internal/engine"
	"r3bench/internal/sqlparse"
	"r3bench/internal/wire"
)

// The traced run. Every op is executed twice under spans recorded from
// outside the program: once end to end over the wire (op.wire), once as a
// staged in-process replay the benchmark makes itself (op.replay, whose
// children are the stages below). A span's self time is its duration minus
// its children's; op.wire minus the replay of the same op is what the
// server's dispatch, TCP and the goroutine hand-offs cost. Spans stay in
// memory until the run ends.

const (
	spOpWire = iota
	spOpReplay
	spParse
	spPrepare
	spExec
	spEncode
	spFrame
	spDecode
	spReport // r3_reports: one report, in process
	numSpanNames
)

var spanNames = [numSpanNames]string{"op.wire", "op.replay", "sqlparse.parse", "engine.prepare", "engine.exec",
	"wire.encode", "wire.frame", "wire.decode", "op.report"}

type span struct {
	id, parent int32 // parent 0 = root
	op         int32
	class      uint8
	name       uint8
	start, end int64 // ns since the run began
}

// traceFileOps bounds the span file: it holds every span of the first
// traceFileOps ops (the aggregates are computed over all of them).
const traceFileOps = 5000

type tracer struct {
	origin  time.Time
	classes []string
	spans   []span
	nextOp  int32
}

func newTracer(origin time.Time, classes []string) *tracer {
	return &tracer{origin: origin, classes: classes}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(parent, op int32, class, name uint8, start, end int64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, class: class, name: name, start: start, end: end})
	return id
}

// wirePass turns a recorded pass into op.wire spans and numbers its ops;
// the replay of the same pass uses the same numbers.
func (t *tracer) wirePass(rec *passRec) {
	for i := range rec.lat {
		t.add(0, t.nextOp+int32(i), rec.class[i], spOpWire, rec.start[i], rec.start[i]+rec.lat[i])
	}
	t.nextOp += int32(len(rec.lat))
}

// write stores the spans of the first traceFileOps ops as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString("[")
	first := true
	for _, s := range t.spans {
		if s.op >= traceFileOps {
			continue
		}
		if !first {
			w.WriteString(",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"op\":%d,\"class\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.id, s.parent, s.op, t.classes[s.class], spanNames[s.name], s.start, s.end)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName sums span durations and counts by name.
func (t *tracer) byName() (ns [numSpanNames]int64, n [numSpanNames]int64) {
	for _, s := range t.spans {
		ns[s.name] += s.end - s.start
		n[s.name]++
	}
	return ns, n
}

// replayer runs the staged replay of ops on the benchmark's own session.
type replayer struct {
	t     *tracer
	l     *localClient
	enc   []byte
	pipe  bytes.Buffer
	in    []byte
	rows  int64 // result rows encoded
	bytes int64 // frame bytes
	// frames keeps the first few result frames for the wire micro-driver.
	frames [][]byte
}

// replay executes one op in stages, a span around each: parse and prepare
// (ad-hoc texts only; a prepared op was parsed at set-up), execute, encode
// the result as server.sendResult does, frame it through a buffer, decode
// it as client.decodeResult does.
func (rp *replayer) replay(o *op, id int32) error {
	t := rp.t
	root := t.add(0, id, o.class, spOpReplay, t.now(), 0)
	defer func() { t.spans[root-1].end = t.now() }()
	stage := func(name uint8, fn func() error) error {
		start := t.now()
		err := fn()
		t.add(root, id, o.class, name, start, t.now())
		return err
	}
	var res *engine.Result
	var err error
	if o.send == sendPrepared {
		err = stage(spExec, func() error { res, err = rp.l.stmts[o.stmt].Query(o.params...); return err })
	} else {
		for _, sql := range o.sqls {
			// Attribution only: on a fingerprint-cache miss engine.prepare
			// parses the text again, so this span is left out when the
			// replay is subtracted from op.wire.
			if err = stage(spParse, func() error { _, err := sqlparse.Parse(sql); return err }); err != nil {
				break
			}
			var st *engine.Stmt
			if err = stage(spPrepare, func() error { st, err = rp.l.sess.Prepare(sql); return err }); err != nil {
				break
			}
			var r *engine.Result
			if err = stage(spExec, func() error { r, err = st.Query(o.params...); return err }); err != nil {
				break
			}
			if res == nil || r.Cols != nil {
				res = r
			}
		}
	}
	if err != nil {
		return err
	}
	_ = stage(spEncode, func() error {
		b := append(rp.enc[:0], wire.MsgResult)
		b = wire.AppendUint32(b, uint32(len(res.Cols)))
		for _, col := range res.Cols {
			b = wire.AppendString(b, col)
		}
		b = wire.AppendUint64(b, uint64(res.RowsAffected))
		b = wire.AppendUint32(b, uint32(len(res.Rows)))
		for _, row := range res.Rows {
			b = wire.AppendValues(b, row)
		}
		rp.enc = b
		return nil
	})
	if err := stage(spFrame, func() error {
		rp.pipe.Reset()
		if err := wire.WriteFrame(&rp.pipe, rp.enc); err != nil {
			return err
		}
		var err error
		rp.in, err = wire.ReadFrame(&rp.pipe, rp.in)
		return err
	}); err != nil {
		return err
	}
	if err := stage(spDecode, func() error { _, err := decodeResultFrame(rp.in); return err }); err != nil {
		return err
	}
	rp.rows += int64(len(res.Rows))
	rp.bytes += int64(len(rp.in))
	if len(rp.frames) < 512 {
		rp.frames = append(rp.frames, append([]byte(nil), rp.in...))
	}
	return nil
}

// decodeResultFrame mirrors client.decodeResult, which is not exported.
func decodeResultFrame(frame []byte) (*engine.Result, error) {
	r := wire.NewReader(frame[1:])
	res := &engine.Result{}
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		res.Cols = append(res.Cols, r.String())
	}
	res.RowsAffected = int64(r.Uint64())
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		res.Rows = append(res.Rows, r.Values())
	}
	return res, r.Err()
}

// replayPass replays traced pass p in process, client after client, with
// the op numbers wirePass gave. The write workload replays the same
// transactions under key blocks of their own: the rows the wire pass
// inserted are already there.
func (r *wireRun) replayPass(tr *tracer, rec *passRec, p int) {
	if r.replay == nil {
		r.replay = &replayer{t: tr, l: r.sim}
	}
	ops := rec.ops
	if r.kind == kindWrite {
		n := r.cfg.sz.clients
		ops = make([][]op, n)
		for c := range ops {
			ops[c] = r.og.writePass(txStream{block: int64(2*n + c), client: c, first: r.cfg.sz.passOps}, p, p+1)
		}
	}
	id := r.replayed
	for c := range ops {
		for i := range ops[c] {
			r.m.attempted++
			if err := r.replay.replay(&ops[c][i], id); err != nil {
				r.m.fail("replay of %s: %v", ops[c][i].describe(r.classes), err)
			}
			id++
		}
	}
	r.replayed = id
	r.lastOps = ops
}
