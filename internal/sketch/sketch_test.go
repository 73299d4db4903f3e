package sketch

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func key(i uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], i)
	return b[:]
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(3, 256)
	truth := map[uint32]uint64{}
	for i := uint32(0); i < 2000; i++ {
		k := i % 300
		cm.Add(key(k), 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := cm.Estimate(key(k)); got < want {
			t.Fatalf("key %d: estimate %d < true %d", k, got, want)
		}
	}
}

func TestCountMinOverestimatesUnderPressure(t *testing.T) {
	// Tiny sketch, many keys: collisions must inflate some estimate —
	// exactly the inaccuracy §5.2 rejects for test statistics.
	cm := NewCountMin(2, 16)
	for i := uint32(0); i < 1000; i++ {
		cm.Add(key(i), 1)
	}
	over := 0
	for i := uint32(0); i < 1000; i++ {
		if cm.Estimate(key(i)) > 1 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("no overestimates despite heavy collisions")
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	cm := NewCountMin(4, 1<<14)
	for i := uint32(0); i < 10; i++ {
		cm.Add(key(i), uint64(i+1))
	}
	for i := uint32(0); i < 10; i++ {
		if got := cm.Estimate(key(i)); got != uint64(i+1) {
			t.Fatalf("sparse estimate for %d = %d, want %d", i, got, i+1)
		}
	}
	if cm.Estimate(key(999)) != 0 {
		t.Fatal("absent key should estimate 0 in a sparse sketch")
	}
}

func TestCountMinDepthClamped(t *testing.T) {
	if cm := NewCountMin(0, 8); len(cm.rows) != 1 {
		t.Fatal("depth 0 not clamped to 1")
	}
	if cm := NewCountMin(99, 8); len(cm.rows) != len(polys) {
		t.Fatal("depth not clamped to available hashers")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1<<14, 3)
	for i := uint32(0); i < 1000; i++ {
		b.AddIfNew(key(i))
	}
	for i := uint32(0); i < 1000; i++ {
		if b.AddIfNew(key(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func TestBloomAddIfNewOncePerKey(t *testing.T) {
	b := NewBloom(1<<14, 3)
	if !b.AddIfNew(key(7)) {
		t.Fatal("first insert not new")
	}
	if b.AddIfNew(key(7)) {
		t.Fatal("second insert reported new")
	}
}

func TestBloomFalsePositivesUnderPressure(t *testing.T) {
	// Small filter, many keys: some distinct keys must be miscounted as
	// duplicates — the false positives HyperTester eliminates.
	b := NewBloom(256, 2)
	newCount := 0
	const n = 2000
	for i := uint32(0); i < n; i++ {
		if b.AddIfNew(key(i)) {
			newCount++
		}
	}
	if newCount == n {
		t.Fatal("no false positives despite saturation")
	}
}

// Property: Count-Min estimate of any key is >= its true count.
func TestCountMinLowerBoundProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		cm := NewCountMin(3, 128)
		truth := map[uint16]uint64{}
		for _, k := range keys {
			cm.Add(key(uint32(k)), 1)
			truth[k]++
		}
		for k, want := range truth {
			if cm.Estimate(key(uint32(k))) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bloom never yields a false negative.
func TestBloomNoFalseNegativeProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		b := NewBloom(4096, 3)
		for _, k := range keys {
			b.AddIfNew(key(uint32(k)))
		}
		for _, k := range keys {
			if b.AddIfNew(key(uint32(k))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
