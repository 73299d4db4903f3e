package htpr

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeEviction: the eviction-digest decoder never panics on any bytes,
// decodes the same into a reused key buffer as into a fresh one, and what it
// accepts re-encodes to the very message. Seeds are under
// testdata/fuzz/FuzzDecodeEviction.
func FuzzDecodeEviction(f *testing.F) {
	f.Fuzz(func(t *testing.T, msg []byte) {
		q, key, v, err := DecodeEviction(msg)
		stale := []uint64{1, 2, 3, 4, 5, 6, 7, 8} // an earlier decode's key
		rq, rkey, rv, rerr := DecodeEvictionInto(stale[:3], msg)
		if (err == nil) != (rerr == nil) || q != rq || v != rv || !slices.Equal(key, rkey) {
			t.Fatalf("fresh (%d %v %d %v) and reused (%d %v %d %v) buffers disagree", q, key, v, err, rq, rkey, rv, rerr)
		}
		if err != nil {
			return
		}
		if back := AppendEviction(nil, q, key, v); !bytes.Equal(back, msg) {
			t.Fatalf("decoded (%d %v %d) re-encodes as %x, not %x", q, key, v, back, msg)
		}
	})
}
