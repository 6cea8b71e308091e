// Package cluster replicates the warm pulse store across a static set of
// paqoc-server replicas. Every canonical pulse key (namespaced by backend
// fingerprint) has exactly one owner replica, chosen by rendezvous
// hashing over the peer list — no coordinator, no rebalancing protocol,
// and every replica computes the same answer from the same configuration.
// On a local database miss the compile path asks the key's owner over a
// small internal HTTP RPC before paying for generation, and freshly
// generated pulses are write-through-published to their owner so the next
// replica to miss finds them there.
//
// Everything here is best-effort: peer timeouts and failures degrade to
// local generation (guarded by a per-peer circuit breaker so a dead
// replica costs at most one timeout per cooldown window), and are never
// visible to compile clients as errors.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"paqoc/internal/obs"
)

// Config describes one replica's view of the cluster.
type Config struct {
	// Self is this replica's own advertised address (host:port of its
	// -cluster-listen). It is added to Peers if absent.
	Self string
	// Peers is the full static membership, one advertised address per
	// replica. Order does not matter: ownership depends only on the set.
	Peers []string
	// Timeout bounds each peer RPC (default 2s). It should be far below
	// the cost of a GRAPE run — a slow peer must never cost more than the
	// generation it might save.
	Timeout time.Duration
	// Registry receives cluster.* metrics (may be nil).
	Registry *obs.Registry
	// Logger receives peer-failure logs (may be nil).
	Logger *slog.Logger
}

// A peer's circuit opens after breakerThreshold consecutive failures and
// then skips the peer for breakerCooldown before allowing a trial request.
const (
	breakerThreshold = 3
	breakerCooldown  = 15 * time.Second
)

// Cluster is one replica's membership view plus the RPC client state.
type Cluster struct {
	self    string
	peers   []string // sorted, deduped, includes self
	timeout time.Duration
	client  *http.Client
	reg     *obs.Registry
	log     *slog.Logger

	mu       sync.Mutex
	breakers map[string]*breaker
}

// New validates the membership and returns the replica's cluster view. A
// single-member (or empty) peer list is valid and yields a cluster where
// every key is owned locally — the degenerate standalone configuration.
func New(cfg Config) (*Cluster, error) {
	set := map[string]bool{}
	var peers []string
	add := func(p string) error {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil
		}
		if strings.Contains(p, "/") && !strings.Contains(p, "://") {
			return fmt.Errorf("cluster: peer %q is not a host:port or URL", p)
		}
		if !set[p] {
			set[p] = true
			peers = append(peers, p)
		}
		return nil
	}
	if err := add(cfg.Self); err != nil {
		return nil, err
	}
	for _, p := range cfg.Peers {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	if len(peers) > 1 && strings.TrimSpace(cfg.Self) == "" {
		return nil, fmt.Errorf("cluster: peers configured but no self address — this replica could not tell which keys it owns")
	}
	sort.Strings(peers)

	c := &Cluster{
		self:     strings.TrimSpace(cfg.Self),
		peers:    peers,
		timeout:  cfg.Timeout,
		reg:      cfg.Registry,
		log:      cfg.Logger,
		breakers: map[string]*breaker{},
	}
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	c.client = &http.Client{Timeout: c.timeout}
	return c, nil
}

// Enabled reports whether there is anyone to talk to: with fewer than two
// members every key is owned locally and the RPC client never fires.
func (c *Cluster) Enabled() bool { return c != nil && len(c.peers) > 1 }

// Self returns this replica's advertised address.
func (c *Cluster) Self() string { return c.self }

// Peers returns the full membership (sorted; includes self).
func (c *Cluster) Peers() []string { return append([]string(nil), c.peers...) }

// Owner returns the advertised address of the replica that owns key (the
// fingerprint-namespaced form, pulse.NamespacedKey). With fewer than two
// members it is always self.
func (c *Cluster) Owner(key string) string {
	if !c.Enabled() {
		if c == nil {
			return ""
		}
		return c.self
	}
	return Owner(c.peers, key)
}

// OwnsLocally reports whether this replica is key's owner.
func (c *Cluster) OwnsLocally(key string) bool {
	return !c.Enabled() || c.Owner(key) == c.self
}

// baseURL turns an advertised peer address into a request base.
func baseURL(peer string) string {
	if strings.Contains(peer, "://") {
		return strings.TrimSuffix(peer, "/")
	}
	return "http://" + peer
}

func (c *Cluster) counter(name string) *obs.Counter { return c.reg.Counter(name) }

// breaker is a per-peer circuit: consecutive failures open it for a
// cooldown window, after which one trial request is allowed through
// (success closes it, failure re-opens immediately).
type breaker struct {
	mu        sync.Mutex
	failures  int
	openUntil time.Time
}

func (c *Cluster) breakerFor(peer string) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.breakers[peer]
	if b == nil {
		b = &breaker{}
		c.breakers[peer] = b
	}
	return b
}

// allow reports whether a request to peer may proceed.
func (c *Cluster) allow(peer string) bool {
	b := c.breakerFor(peer)
	b.mu.Lock()
	defer b.mu.Unlock()
	if time.Now().Before(b.openUntil) {
		c.counter("cluster.breaker_skips").Inc()
		return false
	}
	return true
}

// success records a peer responding (any HTTP response, including a miss).
func (c *Cluster) success(peer string) {
	b := c.breakerFor(peer)
	b.mu.Lock()
	b.failures = 0
	b.openUntil = time.Time{}
	b.mu.Unlock()
}

// failure records a transport-level peer failure and opens the circuit at
// the threshold.
func (c *Cluster) failure(peer string, err error) {
	c.counter("cluster.peer_errors").Inc()
	b := c.breakerFor(peer)
	b.mu.Lock()
	b.failures++
	opened := b.failures >= breakerThreshold
	if opened {
		b.openUntil = time.Now().Add(breakerCooldown)
	}
	b.mu.Unlock()
	if c.log != nil {
		c.log.Warn("cluster peer failure", "peer", peer, "err", err, "breaker_open", opened)
	}
	if opened {
		c.counter("cluster.breaker_opens").Inc()
	}
}
