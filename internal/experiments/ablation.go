package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/hypertester/hypertester/internal/asic"
	"github.com/hypertester/hypertester/internal/core/compiler"
	"github.com/hypertester/hypertester/internal/core/htpr"
	"github.com/hypertester/hypertester/internal/core/ntapi"
	"github.com/hypertester/hypertester/internal/sketch"
)

// The two ablations back the paper's §3.1/§5.2 design arguments with
// measurements the paper asserts but does not plot:
//
//   - AblationSketchAccuracy: the counter-based algorithm with exact key
//     matching is *exact*, while Sonata's sketch-based reduce (Count-Min)
//     and distinct (Bloom) err under memory pressure — the reason
//     HyperTester "redesigns reduce and distinct".
//   - AblationCuckooOccupancy: cuckoo hashing holds far more of the key
//     population on-chip than the simple hashing of prior counter-based
//     designs (HashPipe et al.), which evict on first collision — the
//     reason §5.2 takes on the complexity of data-plane cuckoo.

func ablationPlan(kind ntapi.QueryKind, arraySize int) *compiler.QueryPlan {
	return &compiler.QueryPlan{
		ID:         1,
		Query:      &ntapi.Query{Name: "ablation"},
		Kind:       kind,
		Func:       ntapi.AggCount,
		Keys:       []asic.Field{asic.FieldIPv4Src},
		DigestBits: 16,
		ArraySize:  arraySize,
		PolyArray1: asic.PolyCRC32,
		PolyArray2: asic.PolyCRC32C,
		PolyDigest: asic.PolyKoopman,
	}
}

func keyBytes(k uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	return b[:]
}

// AblationSketchAccuracy compares per-flow counting accuracy of the paper's
// counter-based algorithm against Sonata's sketch structures at equal
// data-plane memory, across flow populations.
func AblationSketchAccuracy(cfg Config) *Result {
	res := &Result{
		ID:      "Ablation A",
		Title:   "Counter-based vs sketch-based accuracy (equal memory)",
		Columns: []string{"counter err keys", "CM overest. keys", "CM avg rel err", "Bloom distinct err"},
	}
	updatesPerFlow := 8
	pops := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		pops = []int{1 << 12, 1 << 14}
	}
	for _, flows := range pops {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(flows)))

		// Key population + ground truth. uniq holds the distinct keys in
		// first-occurrence order: scoring iterates it instead of the truth
		// map, whose iteration order varies run to run.
		keys := make([]uint64, flows)
		for i := range keys {
			keys[i] = rng.Uint64() & 0xffffffff
		}
		truth := map[uint64]uint64{}
		uniq := make([]uint64, 0, flows)
		for _, k := range keys {
			if _, ok := truth[k]; !ok {
				truth[k] = 0
				uniq = append(uniq, k)
			}
		}

		// Counter-based: arrays sized at 1/4 of the population (heavy
		// pressure), exact keys precomputed as the compiler would.
		arraySize := flows / 4
		for arraySize&(arraySize-1) != 0 {
			arraySize++
		}
		plan := ablationPlan(ntapi.KindReduce, arraySize)
		// keys is already a one-word-per-row key matrix.
		plan.ExactKeys = compiler.NewExactKeyKernel(plan.PolyArray1, plan.PolyArray2, plan.PolyDigest).
			ExactKeys(keys, 1, plan.ArraySize, plan.DigestBits)
		ct := htpr.NewCounterTable(plan)

		// Sketch memory budget = the counter table's register memory:
		// 2 arrays x (16b digest + 64b counter).
		memBytes := 2 * arraySize * (16 + 64) / 8
		cmWidth := memBytes / 8 / 4 // 4 rows of 8-byte counters
		cm := sketch.NewCountMin(4, cmWidth)
		bloom := sketch.NewBloom(memBytes*8, 3)
		bloomDistinct := 0

		for pass := 0; pass < updatesPerFlow; pass++ {
			for _, k := range keys {
				ct.Update([]uint64{k}, 1)
				ct.DrainOne()
				cm.Add(keyBytes(k), 1)
				if pass == 0 && bloom.AddIfNew(keyBytes(k)) {
					bloomDistinct++
				}
				truth[k]++
			}
		}

		// Score.
		counterErrs := 0
		got := map[uint64]uint64{}
		for _, r := range ct.Collect() {
			got[r.Key[0]] = r.Value
		}
		for _, k := range uniq {
			if got[k] != truth[k] {
				counterErrs++
			}
		}
		cmOver, cmRelSum := 0, 0.0
		for _, k := range uniq {
			want := truth[k]
			est := cm.Estimate(keyBytes(k))
			if est > want {
				cmOver++
			}
			cmRelSum += float64(est-want) / float64(want)
		}
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d flows", flows),
			Values: []string{
				fmt.Sprintf("%d", counterErrs),
				fmt.Sprintf("%d (%.1f%%)", cmOver, 100*float64(cmOver)/float64(flows)),
				fmt.Sprintf("%.3f", cmRelSum/float64(flows)),
				fmt.Sprintf("%+d", bloomDistinct-flows),
			},
		})
	}
	res.Notes = append(res.Notes,
		"counter-based reduce/distinct (exact key matching + cuckoo + CPU eviction) is exact at any pressure; Count-Min overestimates and Bloom undercounts distinct as memory tightens — the §5.2 motivation")
	return res
}

// AblationCuckooOccupancy compares on-chip occupancy (fraction of the key
// population resident in data-plane arrays rather than evicted to the CPU)
// between partial-key cuckoo hashing and the simple single-choice hashing
// of prior counter-based designs, at equal memory.
func AblationCuckooOccupancy(cfg Config) *Result {
	res := &Result{
		ID:      "Ablation B",
		Title:   "Cuckoo vs simple hashing: on-chip occupancy at equal memory",
		Columns: []string{"cuckoo on-chip", "simple-hash on-chip"},
	}
	h := asic.NewHashUnit("simple", asic.PolyCRC32)
	loads := []float64{0.25, 0.5, 0.75, 1.0, 1.25}
	const slots = 1 << 12 // total cells across structures
	for _, load := range loads {
		n := int(load * slots)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))

		// Cuckoo: two arrays of slots/2 (same total memory).
		plan := ablationPlan(ntapi.KindDistinct, slots/2)
		ct := htpr.NewCounterTable(plan)
		for i := 0; i < n; i++ {
			ct.Update([]uint64{rng.Uint64()}, 1)
			ct.DrainOne()
			ct.DrainOne()
		}
		cuckooOnChip := float64(n-int(ct.Evictions)) / float64(n)

		// Simple hashing: one array of `slots`; first collision evicts
		// the newcomer to the CPU.
		occupied := make([]bool, slots)
		evicted := 0
		for i := 0; i < n; i++ {
			idx := h.Index(keyBytes(rng.Uint64()), slots)
			if occupied[idx] {
				evicted++
			} else {
				occupied[idx] = true
			}
		}
		simpleOnChip := float64(n-evicted) / float64(n)

		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("load %.2f (%d keys / %d cells)", load, n, slots),
			Values: []string{
				fmt.Sprintf("%.1f%%", 100*cuckooOnChip),
				fmt.Sprintf("%.1f%%", 100*simpleOnChip),
			},
		})
	}
	res.Notes = append(res.Notes,
		"partial-key cuckoo keeps nearly the whole population on-chip until the arrays genuinely fill; single-choice hashing sheds keys to the control plane from low load — the memory-efficiency argument of §5.2")
	return res
}
