package pulse

import (
	"math"
	"math/cmplx"
	"sort"

	"paqoc/internal/linalg"
)

// dimIndex is the per-dimension similarity index behind Nearest. The first
// entry stored in a dimension becomes the pivot; every entry caches its
// phase-invariant distance to that pivot, and the item list stays sorted
// by it. A query then computes its own pivot distance dq once and scans
// outward from dq: by the triangle inequality, an entry at pivot distance
// p can be no closer to the query than |dq − p|, so as soon as that lower
// bound exceeds the best distance found, the rest of that direction is
// pruned without ever touching the O(dim²) distance kernel.
//
// A dimIndex has no lock of its own: every access holds the DB mutex.
type dimIndex struct {
	pivot      *linalg.Matrix
	pivotNorm2 float64
	items      []indexItem // sorted ascending by dPivot
}

// indexItem pairs an entry with its cached distance to the dim pivot.
type indexItem struct {
	dPivot float64
	e      *Entry
}

// pruneSlack absorbs floating-point error in the triangle-inequality
// bound: distances are O(1)-magnitude, computed to ~1e-15, so 1e-9 of
// slack can never prune a true winner yet costs nothing in selectivity.
const pruneSlack = 1e-9

// insert adds a freshly stored entry, keeping the list sorted by pivot
// distance. The first entry of a dimension seeds the pivot (and keeps it
// forever — a stable pivot keeps every cached dPivot valid, even if the
// pivot entry itself is later evicted).
func (ix *dimIndex) insert(e *Entry) {
	if ix.pivot == nil {
		ix.pivot = e.U
		ix.pivotNorm2 = e.norm2
	}
	d := phaseDist(ix.pivot, e.U, ix.pivotNorm2, e.norm2)
	i := sort.Search(len(ix.items), func(i int) bool { return ix.items[i].dPivot >= d })
	ix.items = append(ix.items, indexItem{})
	copy(ix.items[i+1:], ix.items[i:])
	ix.items[i] = indexItem{dPivot: d, e: e}
}

// removeAll drops every victim in one pass (batch eviction support).
func (ix *dimIndex) removeAll(victims map[*Entry]bool) {
	kept := ix.items[:0]
	for _, it := range ix.items {
		if !victims[it.e] {
			kept = append(kept, it)
		}
	}
	for i := len(kept); i < len(ix.items); i++ {
		ix.items[i] = indexItem{} // release evicted entries to the GC
	}
	ix.items = kept
}

// frobNorm2 is ‖m‖²_F.
func frobNorm2(m *linalg.Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		re, im := real(v), imag(v)
		s += re*re + im*im
	}
	return s
}

// phaseDist is the phase-invariant Frobenius distance via the one-pass
// identity min_φ ‖A − e^{iφ}B‖²_F = ‖A‖² + ‖B‖² − 2·|tr(B†A)| — the same
// metric as linalg.GlobalPhaseDistance without forming A − e^{iφ}B, so a
// candidate costs one O(dim²) pass and zero allocations.
func phaseDist(a, b *linalg.Matrix, na2, nb2 float64) float64 {
	d2 := na2 + nb2 - 2*cmplx.Abs(linalg.TraceOverlap(b, a))
	if d2 < 0 {
		d2 = 0 // fp noise on (near-)identical unitaries
	}
	return math.Sqrt(d2)
}

// Nearest returns the stored entry of matching dimension with the smallest
// phase-invariant Frobenius distance to u, provided it is below maxDist.
// Used as the GRAPE initial guess (§V-B, following AccQOC). Exact distance
// ties break on the canonical key, so the chosen warm start is stable for
// a given DB population even when stores raced with the scan — and
// identical to the seed-era linear scan (NearestLinear), which the
// equivalence property test pins.
//
// The scan starts at the query's own pivot distance and expands outward,
// pruning each direction as soon as the triangle-inequality lower bound
// exceeds the best candidate; pulse.nearest_scanned / pulse.nearest_pruned
// count the split when a metrics registry is attached.
func (db *DB) Nearest(u *linalg.Matrix, maxDist float64) (*Entry, float64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ix := db.dims[u.Rows]
	if ix == nil || len(ix.items) == 0 {
		return nil, 0, false
	}

	un2 := frobNorm2(u)
	dq := phaseDist(ix.pivot, u, ix.pivotNorm2, un2)
	items := ix.items

	var best *Entry
	bestDist := maxDist
	scanned := 0
	consider := func(e *Entry) {
		scanned++
		d := phaseDist(u, e.U, un2, e.norm2)
		switch {
		case d < bestDist:
			best, bestDist = e, d
		case d == bestDist && best != nil && e.Key < best.Key:
			best = e
		}
	}

	// Outward two-pointer walk from dq: left runs down the sorted pivot
	// distances, right runs up. Visiting near-dq candidates first shrinks
	// bestDist early, which tightens the bound that closes each side.
	right := sort.Search(len(items), func(i int) bool { return items[i].dPivot >= dq })
	left := right - 1
	for left >= 0 || right < len(items) {
		// Prefer the side whose candidate is closer to dq.
		useLeft := right >= len(items) ||
			(left >= 0 && dq-items[left].dPivot <= items[right].dPivot-dq)
		if useLeft {
			if dq-items[left].dPivot > bestDist+pruneSlack {
				left = -1 // everything further left is at least as far
				continue
			}
			consider(items[left].e)
			left--
		} else {
			if items[right].dPivot-dq > bestDist+pruneSlack {
				right = len(items) // everything further right is at least as far
				continue
			}
			consider(items[right].e)
			right++
		}
	}

	db.counter("pulse.nearest_scanned").Add(int64(scanned))
	db.counter("pulse.nearest_pruned").Add(int64(len(items) - scanned))
	if best == nil {
		return nil, 0, false
	}
	best.uses.Add(1)
	return best, bestDist, true
}
