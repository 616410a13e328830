package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"r3bench/internal/race"
	"r3bench/internal/val"
)

func TestFrameRoundTripReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte{MsgQuery, 1, 2, 3},
		[]byte{MsgResult},
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %v, want %v", i, got, want)
		}
		scratch = got // the caller's reuse contract
	}
}

// TestFrameHeadersAllocateNothing: through bufio, as the server and the
// client frame every message, neither writing nor reading a frame allocates
// (one allocation each way while the 4-byte header escaped to the heap);
// without io.ByteWriter and io.ByteReader the same bytes go out and come
// back, and a stream cut inside the header fails the same way.
func TestFrameHeadersAllocateNothing(t *testing.T) {
	payload := bytes.Repeat([]byte{MsgRowBatch, 7}, 20)
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	const runs = 100
	if n := testing.AllocsPerRun(runs, func() {
		if err := WriteFrame(w, payload); err != nil {
			t.Fatal(err)
		}
	}); !race.Enabled && n != 0 {
		t.Errorf("WriteFrame through bufio allocates %.2f times per frame, want 0", n)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := out.Bytes()
	var plain bytes.Buffer
	for range runs + 1 {
		if err := WriteFrame(struct{ io.Writer }{&plain}, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plain.Bytes(), stream) {
		t.Fatal("WriteFrame writes different bytes with and without io.ByteWriter")
	}

	r := bufio.NewReader(bytes.NewReader(stream))
	buf := make([]byte, 0, len(payload))
	if n := testing.AllocsPerRun(runs, func() {
		got, err := ReadFrame(r, buf)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%v, %v", got, err)
		}
	}); !race.Enabled && n != 0 {
		t.Errorf("ReadFrame through bufio allocates %.2f times per frame, want 0", n)
	}

	for cut := 0; cut < 4; cut++ {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		for _, r := range []io.Reader{bytes.NewReader(stream[:cut]), struct{ io.Reader }{bytes.NewReader(stream[:cut])}} {
			if _, err := ReadFrame(r, nil); err != want {
				t.Errorf("a stream cut after %d header bytes: err = %v, want %v", cut, err, want)
			}
		}
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	// A header announcing more than MaxFrame must be refused before any
	// allocation — a corrupt or hostile peer must not cost us 4 GiB.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame+1))
	_, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("error = %v, want frame-limit rejection", err)
	}

	// Exactly MaxFrame is within contract (truncated here, but the size
	// itself passes the check).
	binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrame))
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil || strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("MaxFrame-sized header mishandled: %v", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(short), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	in := []val.Value{val.Int(-7), val.Float(2.5), val.Str("hello"), val.Null, val.Date(9131)}
	body := AppendValues(nil, in)
	r := NewReader(body)
	out := r.Values()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d values, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].K != in[i].K || out[i].I != in[i].I || out[i].F != in[i].F || out[i].S != in[i].S {
			t.Errorf("value %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReaderTruncatedValues(t *testing.T) {
	body := AppendValues(nil, []val.Value{val.Str("abcdef")})
	r := NewReader(body[:len(body)-3])
	r.Values()
	if r.Err() == nil {
		t.Fatal("truncated value list decoded without error")
	}
}
