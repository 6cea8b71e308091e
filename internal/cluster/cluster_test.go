package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/cmplx"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"paqoc/internal/api"
	"paqoc/internal/linalg"
	"paqoc/internal/obs"
	"paqoc/internal/pulse"
)

// phaseGate returns diag(1, e^{iθ}) — a family of distinct single-qubit
// unitaries for steering keys onto chosen owners.
func phaseGate(theta float64) *linalg.Matrix {
	u := linalg.New(2, 2)
	u.Data[0] = 1
	u.Data[3] = cmplx.Exp(complex(0, theta))
	return u
}

// gateOwnedBy searches the phase-gate family for a unitary whose
// fingerprint-namespaced key is owned by peer.
func gateOwnedBy(t *testing.T, c *Cluster, fingerprint, peer string) *linalg.Matrix {
	t.Helper()
	for i := 1; i < 200; i++ {
		u := phaseGate(float64(i) / 40)
		if c.Owner(pulse.NamespacedKey(fingerprint, pulse.CanonicalKey(u))) == peer {
			return u
		}
	}
	t.Fatalf("no phase gate owned by %s", peer)
	return nil
}

func testGenerated() *pulse.Generated {
	return &pulse.Generated{
		Latency:  42,
		Fidelity: 0.9995,
		Error:    0.0005,
		Schedule: &pulse.Schedule{
			Channels: []string{"d0.x", "d0.y"},
			Amps:     [][]float64{{0.1, 0.2}, {0.3, 0.4}},
			SliceDt:  1,
		},
	}
}

func TestOwnerDeterministicAndBalanced(t *testing.T) {
	peers := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}
	shuffled := []string{peers[2], peers[0], peers[1]}
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("fp\x1fkey-%d", i)
		o := Owner(peers, key)
		if got := Owner(shuffled, key); got != o {
			t.Fatalf("owner depends on peer order: %s vs %s", o, got)
		}
		counts[o]++
	}
	for _, p := range peers {
		if counts[p] < 200 {
			t.Errorf("peer %s owns only %d/1000 keys — distribution badly skewed", p, counts[p])
		}
	}
}

// TestOwnerStableUnderPeerRemoval is the rendezvous property the design
// leans on: removing one peer reassigns only the keys it owned.
func TestOwnerStableUnderPeerRemoval(t *testing.T) {
	peers := []string{"a:1", "b:1", "c:1"}
	without := []string{"a:1", "c:1"}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := Owner(peers, key)
		after := Owner(without, key)
		if before != "b:1" && after != before {
			t.Fatalf("key %q moved from %s to %s although its owner survived", key, before, after)
		}
	}
}

func TestStandaloneOwnsEverything(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled() {
		t.Error("empty cluster reports Enabled")
	}
	if !c.OwnsLocally("any-key") {
		t.Error("standalone cluster does not own its keys")
	}
	if g, ok := c.RemoteFor("fp").FetchPulse(context.Background(), phaseGate(1)); ok || g != nil {
		t.Error("standalone FetchPulse returned a pulse")
	}
}

func TestNewRejectsPeersWithoutSelf(t *testing.T) {
	if _, err := New(Config{Peers: []string{"a:1", "b:1"}}); err == nil {
		t.Error("peers without a self address were accepted")
	}
}

// twoReplicas builds two clusters wired to each other through real HTTP
// listeners, each with its own DB (fingerprint "fp") and registry.
// swapHandler late-binds an http.Handler: the httptest listener must
// exist before the Cluster (peers are its URL), but the Cluster's Handler
// is what the listener must serve. The mutex makes the bind race-safe.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Set(h http.Handler) { s.mu.Lock(); s.h = h; s.mu.Unlock() }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func twoReplicas(t *testing.T) (cA, cB *Cluster, dbA, dbB *pulse.DB, regA, regB *obs.Registry) {
	t.Helper()
	dbA, dbB = pulse.NewDB(), pulse.NewDB()
	dbA.SetFingerprint("fp")
	dbB.SetFingerprint("fp")
	regA, regB = obs.NewRegistry(), obs.NewRegistry()

	hA, hB := &swapHandler{}, &swapHandler{}
	srvA := httptest.NewServer(hA)
	srvB := httptest.NewServer(hB)
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)

	peers := []string{srvA.URL, srvB.URL}
	var err error
	cA, err = New(Config{Self: srvA.URL, Peers: peers, Timeout: 2 * time.Second, Registry: regA})
	if err != nil {
		t.Fatal(err)
	}
	cB, err = New(Config{Self: srvB.URL, Peers: peers, Timeout: 2 * time.Second, Registry: regB})
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(db *pulse.DB) func(string) (*pulse.DB, bool) {
		return func(fp string) (*pulse.DB, bool) {
			if fp != "fp" {
				return nil, false
			}
			return db, true
		}
	}
	hA.Set(cA.Handler(resolve(dbA)))
	hB.Set(cB.Handler(resolve(dbB)))
	return cA, cB, dbA, dbB, regA, regB
}

func TestPublishThenFetchRoundTrip(t *testing.T) {
	cA, cB, dbA, dbB, regA, _ := twoReplicas(t)
	ctx := context.Background()

	// A gate owned by B, seen from A: publish ships it to B's store.
	u := gateOwnedBy(t, cA, "fp", cB.Self())
	g := testGenerated()
	remA := cA.RemoteFor("fp")
	remA.PublishPulse(ctx, u, g)

	if regA.Counter("cluster.publishes").Value() != 1 {
		t.Fatalf("publishes = %d, want 1", regA.Counter("cluster.publishes").Value())
	}
	e, ok := dbB.EntryByKey(pulse.CanonicalKey(u))
	if !ok {
		t.Fatal("owner replica does not hold the published entry")
	}
	if e.Generated.Latency != g.Latency || e.Generated.Fidelity != g.Fidelity {
		t.Errorf("published entry mangled: latency %v fidelity %v", e.Generated.Latency, e.Generated.Fidelity)
	}

	// A misses locally and fetches from the owner.
	if _, ok := dbA.EntryByKey(pulse.CanonicalKey(u)); ok {
		t.Fatal("publisher stored the entry locally through the remote")
	}
	got, ok := remA.FetchPulse(ctx, u)
	if !ok {
		t.Fatal("FetchPulse missed an entry the owner holds")
	}
	if got.Latency != g.Latency || got.Fidelity != g.Fidelity {
		t.Errorf("fetched pulse mangled: latency %v fidelity %v", got.Latency, got.Fidelity)
	}
	if got.Schedule == nil || len(got.Schedule.Channels) != 2 || got.Schedule.Amps[1][0] != 0.3 {
		t.Errorf("fetched schedule did not round-trip: %+v", got.Schedule)
	}
	if regA.Counter("cluster.peer_hits").Value() != 1 {
		t.Errorf("peer_hits = %d, want 1", regA.Counter("cluster.peer_hits").Value())
	}

	// A different gate owned by B that B does not hold: a clean miss, not
	// an error.
	miss := gateOwnedBy(t, cA, "fp", cB.Self())
	for i := 2; pulse.CanonicalKey(miss) == pulse.CanonicalKey(u); i++ {
		miss = phaseGate(float64(i) + 0.5)
	}
	if _, ok := remA.FetchPulse(ctx, miss); ok && pulse.CanonicalKey(miss) != pulse.CanonicalKey(u) {
		t.Error("FetchPulse hit on a key nobody stored")
	}
	if regA.Counter("cluster.peer_errors").Value() != 0 {
		t.Errorf("peer_errors = %d after healthy exchanges, want 0", regA.Counter("cluster.peer_errors").Value())
	}
}

func TestFetchSelfOwnedIsLocalOnly(t *testing.T) {
	cA, _, _, _, regA, _ := twoReplicas(t)
	u := gateOwnedBy(t, cA, "fp", cA.Self())
	if _, ok := cA.RemoteFor("fp").FetchPulse(context.Background(), u); ok {
		t.Error("FetchPulse crossed the network for a self-owned key")
	}
	if n := regA.Counter("cluster.peer_misses").Value() + regA.Counter("cluster.peer_errors").Value(); n != 0 {
		t.Errorf("self-owned fetch touched a peer (%d RPC outcomes)", n)
	}
}

func TestMergeKeepsHigherFidelityOnRepublish(t *testing.T) {
	cA, cB, _, dbB, _, _ := twoReplicas(t)
	ctx := context.Background()
	u := gateOwnedBy(t, cA, "fp", cB.Self())
	remA := cA.RemoteFor("fp")

	good := testGenerated()
	remA.PublishPulse(ctx, u, good)
	worse := testGenerated()
	worse.Fidelity = 0.99
	worse.Latency = 7
	remA.PublishPulse(ctx, u, worse)

	e, ok := dbB.EntryByKey(pulse.CanonicalKey(u))
	if !ok {
		t.Fatal("entry missing after republish")
	}
	if e.Generated.Fidelity != good.Fidelity || e.Generated.Latency != good.Latency {
		t.Errorf("lower-fidelity republish clobbered the stored pulse: %+v", e.Generated)
	}
}

func TestPeerDownDegradesAndBreakerOpens(t *testing.T) {
	// Reserve a port and close it so dials fail fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	reg := obs.NewRegistry()
	c, err := New(Config{
		Self:     "127.0.0.1:1",
		Peers:    []string{"127.0.0.1:1", dead},
		Timeout:  300 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := gateOwnedBy(t, c, "fp", dead)
	rem := c.RemoteFor("fp")
	ctx := context.Background()
	for i := 0; i < breakerThreshold; i++ {
		if _, ok := rem.FetchPulse(ctx, u); ok {
			t.Fatal("fetch from a dead peer succeeded")
		}
	}
	if got := reg.Counter("cluster.peer_errors").Value(); got != 3 {
		t.Errorf("peer_errors = %d, want 3", got)
	}
	if got := reg.Counter("cluster.breaker_opens").Value(); got != 1 {
		t.Errorf("breaker_opens = %d, want 1", got)
	}
	// Circuit open: further calls skip the dial entirely.
	rem.PublishPulse(ctx, u, testGenerated())
	if _, ok := rem.FetchPulse(ctx, u); ok {
		t.Fatal("fetch through an open breaker succeeded")
	}
	if got := reg.Counter("cluster.breaker_skips").Value(); got < 2 {
		t.Errorf("breaker_skips = %d, want >= 2", got)
	}
	if got := reg.Counter("cluster.peer_errors").Value(); got != 3 {
		t.Errorf("peer_errors grew to %d while the breaker was open", got)
	}
}

func TestHandlerErrorEnvelope(t *testing.T) {
	cA, cB, _, _, _, _ := twoReplicas(t)
	_ = cA
	base := baseURL(cB.Self())

	decode := func(resp *http.Response) api.ErrorResponse {
		t.Helper()
		defer resp.Body.Close()
		var er api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("error body is not the envelope: %v", err)
		}
		return er
	}

	resp, err := http.Get(base + "/internal/v1/pulse/fp/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusNotFound || er.Error.Code != api.CodeUnknownKey {
		t.Errorf("unknown key: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	resp, err = http.Get(base + "/internal/v1/pulse/other-fp/key")
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusConflict || er.Error.Code != api.CodeWrongFingerprint {
		t.Errorf("wrong fingerprint: status %d code %q", resp.StatusCode, er.Error.Code)
	}

	// A published entry must match the key it claims to be.
	u := phaseGate(1)
	we, _ := pulse.EncodeWire(u, testGenerated(), false)
	body, _ := json.Marshal(we)
	req, _ := http.NewRequest(http.MethodPut, base+"/internal/v1/pulse/fp/some-other-key", strings.NewReader(string(body)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if er := decode(resp); resp.StatusCode != http.StatusBadRequest || er.Error.Code != api.CodeBadEntry {
		t.Errorf("mismatched entry: status %d code %q", resp.StatusCode, er.Error.Code)
	}
}

// TestPutOverflowDimIsBadEntry: an entry whose declared dimension would
// overflow the shape check (dim 2^32, empty unitary) is a 400 bad_entry,
// not a handler panic.
func TestPutOverflowDimIsBadEntry(t *testing.T) {
	_, cB, _, _, _, _ := twoReplicas(t)
	body := `{"dim":4294967296,"unitary":[],"latency_dt":1,"fidelity":0.999,"error":0.001}`
	req, _ := http.NewRequest(http.MethodPut, baseURL(cB.Self())+"/internal/v1/pulse/fp/some-key", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || er.Error.Code != api.CodeBadEntry {
		t.Errorf("overflow entry: status %d code %q, want 400 %q", resp.StatusCode, er.Error.Code, api.CodeBadEntry)
	}
}

func TestSnapshotMergeRPC(t *testing.T) {
	cA, cB, dbA, dbB, _, _ := twoReplicas(t)
	_ = cA
	ctx := context.Background()
	_ = ctx

	// Seed A with two entries and ship its snapshot to B.
	for i := 1; i <= 2; i++ {
		u := phaseGate(float64(i))
		g := testGenerated()
		dbA.Merge(u, g, false)
	}
	var buf strings.Builder
	if _, err := dbA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, baseURL(cB.Self())+"/internal/v1/snapshot/fp", strings.NewReader(buf.String()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot merge status %d", resp.StatusCode)
	}
	var rep api.MergeReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Added != 2 || rep.Replaced != 0 || rep.Kept != 0 {
		t.Errorf("merge report %+v, want 2 added", rep)
	}
	if _, ok := dbB.EntryByKey(pulse.CanonicalKey(phaseGate(1))); !ok {
		t.Error("snapshot entry missing from receiver")
	}
}

func BenchmarkRendezvousOwner(b *testing.B) {
	peers := []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000", "10.0.0.4:7000", "10.0.0.5:7000"}
	key := pulse.NamespacedKey("0123456789abcdef", pulse.CanonicalKey(phaseGate(1)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Owner(peers, key)
	}
}
