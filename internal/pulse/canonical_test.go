package pulse

import (
	"bytes"
	"encoding/json"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"paqoc/internal/linalg"
	"paqoc/internal/quantum"
)

// canonicalKeyAppendFloat is CanonicalKey as written with
// strconv.AppendFloat, kept as the oracle for the integer formatting.
func canonicalKeyAppendFloat(u *linalg.Matrix) string {
	phase := complex(1, 0)
	for _, v := range u.Data {
		if cmplx.Abs(v) > 1e-7 {
			phase = cmplx.Conj(v / complex(cmplx.Abs(v), 0))
			break
		}
	}
	b := make([]byte, 0, 8+16*len(u.Data))
	b = strconv.AppendInt(b, int64(u.Rows), 10)
	b = append(b, ':')
	for _, v := range u.Data {
		w := v * phase
		b = appendQuantizedAppendFloat(b, real(w))
		b = append(b, ',')
		b = appendQuantizedAppendFloat(b, imag(w))
		b = append(b, ';')
	}
	return string(b)
}

// appendQuantizedAppendFloat is the oracle's form of one number: quantize
// to 5 decimals, fold −0 into +0, shortest 'g'.
func appendQuantizedAppendFloat(b []byte, x float64) []byte {
	q := math.Round(x*1e5) / 1e5
	if q == 0 {
		q = 0
	}
	return strconv.AppendFloat(b, q, 'g', -1, 64)
}

// checkQuantum compares one number's bytes with the oracle's.
func checkQuantum(t *testing.T, x float64) {
	var gb, wb [32]byte
	got := appendQuantum(gb[:0], math.Round(x*1e5))
	if want := appendQuantizedAppendFloat(wb[:0], x); !bytes.Equal(got, want) {
		t.Fatalf("x = %v (bits %#x): key part %q, AppendFloat oracle %q", x, math.Float64bits(x), got, want)
	}
}

// TestCanonicalKeyMatchesAppendFloat pins the integer formatting to the
// AppendFloat form byte for byte: every quantum k/1e5 with |k| ≤ 400,000
// (the span of unitary entries, with margin) and its ±1-ulp and
// ±half-quantum neighbours, random magnitudes from 1e-6 to 1e6, the
// specials, and whole random unitaries of 1–3 qubits.
func TestCanonicalKeyMatchesAppendFloat(t *testing.T) {
	for k := -400000; k <= 400000; k++ {
		x := float64(k) / 1e5
		checkQuantum(t, x)
		checkQuantum(t, math.Nextafter(x, math.Inf(1)))
		checkQuantum(t, math.Nextafter(x, math.Inf(-1)))
		checkQuantum(t, x-0.5e-5)
		checkQuantum(t, x+0.5e-5)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200000; i++ {
		x := math.Pow(10, rng.Float64()*12-6)
		if rng.Intn(2) == 0 {
			x = -x
		}
		checkQuantum(t, x)
	}
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1e6, -1e6, 999999.99999, 999999.999995, 999999.999994, 1e6 - 1e-5,
		4e-6, -4e-6, 5e-6, -5e-6, 6e-6, 1e-5, 9.4e-5, 9.5e-5, 1e-4,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e21, 123456.789, 9.007199254740993e10,
	}
	for _, x := range specials {
		checkQuantum(t, x)
		checkQuantum(t, math.Nextafter(x, math.Inf(1)))
		checkQuantum(t, math.Nextafter(x, math.Inf(-1)))
	}
	for i := 0; i < 3000; i++ {
		u := randomGateUnitary(rng, 1+rng.Intn(3))
		if got, want := CanonicalKey(u), canonicalKeyAppendFloat(u); got != want {
			t.Fatalf("key %q, AppendFloat oracle %q", got, want)
		}
	}
}

// randomGateUnitary composes a random sequence of u3 and cx gates on n
// qubits.
func randomGateUnitary(rng *rand.Rand, n int) *linalg.Matrix {
	var ops []quantum.EmbeddedOp
	for g := 0; g < 2+rng.Intn(8); g++ {
		if n > 1 && rng.Intn(3) == 0 {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			ops = append(ops, quantum.EmbeddedOp{U: quantum.MatCX, Wires: []int{a, b}})
			continue
		}
		u := quantum.U3(rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
		ops = append(ops, quantum.EmbeddedOp{U: u, Wires: []int{rng.Intn(n)}})
	}
	return quantum.SequenceUnitary(n, ops)
}

// FuzzCanonicalKey compares CanonicalKey with the AppendFloat oracle on a
// fuzzed 2×2 matrix, and each fuzzed number on its own.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
	f.Add(0.70710678, 0.0, 0.70710678, 0.0, 0.70710678, 0.0, -0.70710678, 0.0)
	f.Add(4e-6, -6e-6, 999999.999995, 1e6, math.Inf(1), math.NaN(), -0.0, 5e-6)
	f.Add(1e-8, 0.0, 0.123455, -0.123465, 1e300, -1e-300, 99999.999995, 0.000095)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i float64) {
		for _, x := range []float64{a, b, c, d, e, g, h, i} {
			checkQuantum(t, x)
		}
		u := linalg.FromRows([][]complex128{{complex(a, b), complex(c, d)}, {complex(e, g), complex(h, i)}})
		if got, want := CanonicalKey(u), canonicalKeyAppendFloat(u); got != want {
			t.Fatalf("key %q, AppendFloat oracle %q", got, want)
		}
	})
}

// TestSnapshotFromOracleKeysLoadsAndHits checks the key's role as a
// compatibility contract: a snapshot laid out by the oracle's keys (Save
// sorts entries by key) is byte-identical to the one the new code writes,
// and loading it lands every entry under the oracle's key, where an exact
// lookup of the same unitary hits.
func TestSnapshotFromOracleKeysLoadsAndHits(t *testing.T) {
	const fp = "0123456789abcdef"
	rng := rand.New(rand.NewSource(7))
	db := NewDB()
	db.SetFingerprint(fp)
	var us []*linalg.Matrix
	var oracle []*Entry
	seen := map[string]bool{}
	for len(us) < 40 {
		u := randomGateUnitary(rng, 1+rng.Intn(3))
		key := NamespacedKey(fp, canonicalKeyAppendFloat(u))
		if seen[key] {
			continue
		}
		seen[key] = true
		g := &Generated{Latency: float64(8 * len(us)), Fidelity: 0.999, Error: 0.001}
		us = append(us, u)
		oracle = append(oracle, newEntry(key, u, g, len(us)%3 == 0))
		if len(us)%3 == 0 {
			db.store(u, g, true)
		} else {
			db.Store(u, g)
		}
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i].Key < oracle[j].Key })
	want := dbFile{Version: 1, Fingerprint: fp}
	for _, e := range oracle {
		fe, ok := EncodeEntry(e)
		if !ok {
			t.Fatal("oracle entry not finite")
		}
		want.Entries = append(want.Entries, fe)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := json.NewEncoder(&wantBuf).Encode(want); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("the snapshot written under the new keys differs from the one laid out by the oracle's keys")
	}

	back, err := LoadDB(bytes.NewReader(wantBuf.Bytes()), fp)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range us {
		if _, ok := back.EntryByKey(canonicalKeyAppendFloat(u)); !ok {
			t.Fatalf("unitary %d: no entry under the oracle's key", i)
		}
		g, perm, ok := back.Lookup(u)
		if !ok || perm != nil || g.Latency != float64(8*i) {
			t.Fatalf("unitary %d: lookup ok=%v perm=%v gen=%+v", i, ok, perm, g)
		}
	}
}
