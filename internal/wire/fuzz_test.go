package wire_test

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"disttrack/internal/proto"
	"disttrack/internal/wire"
)

// FuzzDecode feeds arbitrary bytes to the decoder. Whatever the input, the
// decoder must return cleanly — no panic, no over-allocation — and any
// message it does accept must re-encode to exactly the bytes it consumed
// (the encoding is canonical).
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, p := range wire.Registered() {
		for i := 0; i < 2; i++ {
			if b, err := wire.Append(nil, gen(r, p)); err == nil {
				f.Add(b)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := wire.Decode(b)
		if err != nil {
			return
		}
		consumed := b[:len(b)-len(rest)]
		re, err := wire.Append(nil, m)
		if err != nil {
			t.Fatalf("decoded %#v but cannot re-encode: %v", m, err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("decode/encode not canonical for %#v:\nconsumed %x\nreencode %x", m, consumed, re)
		}
	})
}

// FuzzRoundTrip drives the random-instance generator from fuzzed seeds and
// checks Encode -> Decode identity plus the Words() size cross-check for
// every registered type.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(424242))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var buf []byte
		for _, p := range wire.Registered() {
			m := gen(r, p)
			var err error
			buf, err = wire.Append(buf[:0], m)
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + 8*m.Words() + overheadBytes(m); len(buf) != want {
				t.Fatalf("%T: encoded to %d bytes, want %d", m, len(buf), want)
			}
			got, rest, err := wire.Decode(buf)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			if len(rest) != 0 || !reflect.DeepEqual(got, m) {
				t.Fatalf("%T: round trip changed the message", m)
			}
		}
	})
}

// FuzzFrames feeds arbitrary byte streams to both frame readers — the
// in-memory splitter (NextFrame + DecodeFrame, the loopback transport's
// path) and the stream reader (ReadFrame, the socket and WAL path). They
// must agree frame for frame: the same messages (both re-encode to exactly
// the bytes the frame was split from), then the same terminal condition
// (clean end, torn frame, or corruption).
func FuzzFrames(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	var stream []byte
	for _, p := range wire.Registered() {
		stream, _ = wire.AppendFrame(stream, gen(r, p))
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])               // torn payload
	f.Add(stream[:2])                           // torn prefix
	f.Add(append([]byte{}, stream[:9]...))      // truncated first frame
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x01}) // prefix over MaxFrame
	f.Add([]byte{3, 0, 0, 0, 9, 0, 0})          // a 3-byte frame whose message needs more
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rd := bytes.NewReader(b)
		var buf []byte
		for rest := b; ; {
			payload, next, splitErr := wire.NextFrame(rest)
			var m proto.Message
			err := splitErr
			if err == nil {
				m, err = wire.DecodeFrame(payload)
			}
			got, nb, readErr := wire.ReadFrame(rd, buf)
			buf = nb
			if (err == nil) != (readErr == nil) {
				t.Fatalf("splitter error %v, stream reader error %v", err, readErr)
			}
			if err != nil {
				for _, end := range []error{io.EOF, io.ErrUnexpectedEOF} {
					if (splitErr == end) != (readErr == end) {
						t.Fatalf("splitter ended with %v, stream reader with %v", err, readErr)
					}
				}
				return
			}
			// Compare encodings, not values: a decoded NaN is not equal to
			// itself.
			frame := rest[:len(rest)-len(next)]
			for _, dec := range []proto.Message{m, got} {
				re, err := wire.AppendFrame(nil, dec)
				if err != nil || !bytes.Equal(re, frame) {
					t.Fatalf("frame %#v does not re-encode to its bytes (%v)", dec, err)
				}
			}
			rest = next
		}
	})
}
