// Package cluster assembles the distributed MVTL system — storage
// servers, coordinators, and the timestamp service — into the two test
// beds of the paper's evaluation (§8.2):
//
//   - the local bed: few servers on a fast, predictable network
//     (in-memory transport with ~0.1ms one-way latency);
//   - the cloud bed: more servers on a slow, jittery network
//     (~1ms ± 2ms one-way), modelling shared low-cost instances.
//
// The same harness can also run over TCP for multi-process deployments.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/clock"
	"github.com/lpd-epfl/mvtl/internal/history"
	"github.com/lpd-epfl/mvtl/internal/repl"
	"github.com/lpd-epfl/mvtl/internal/server"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
	"github.com/lpd-epfl/mvtl/internal/tsservice"
	"github.com/lpd-epfl/mvtl/internal/wire"
)

// Bed names a preconfigured network environment.
type Bed uint8

// The two test beds of §8.2.
const (
	// BedLocal models the dedicated-machine bed: 1 Gbps network,
	// predictable latency.
	BedLocal Bed = iota + 1
	// BedCloud models the EC2 t2.micro bed: slower, jittery network
	// and scarce resources.
	BedCloud
)

// LatencyFor returns the latency model of a bed.
func LatencyFor(b Bed) transport.LatencyModel {
	switch b {
	case BedCloud:
		return transport.LatencyModel{Base: 800 * time.Microsecond, Jitter: 2 * time.Millisecond}
	default:
		return transport.LatencyModel{Base: 100 * time.Microsecond, Jitter: 50 * time.Microsecond}
	}
}

// Config describes a cluster.
type Config struct {
	// Servers is the number of storage servers (= key partitions).
	Servers int
	// Replicas is the replication factor per partition: each partition
	// becomes a chain of this many servers — one head plus Replicas-1
	// warm standbys pulling the head's log — directed by an embedded
	// repl.Director that coordinators consult through an epoch-stamped
	// router. Values <= 1 keep the cluster unreplicated: no director,
	// no epochs, byte-identical legacy behavior.
	Replicas int
	// Bed picks the network model when Network is nil.
	Bed Bed
	// Network overrides the transport (for TCP deployments).
	Network transport.Network
	// ServerConfig is the base server configuration; Addr and Network
	// are filled per server.
	ServerConfig server.Config
	// Recorder, when non-nil, is handed to every client for
	// serializability checking.
	Recorder *history.Recorder
	// ConnsPerServer sizes every coordinator's RPC connection pool per
	// server (see client.Config.ConnsPerServer); zero keeps the
	// single-connection default.
	ConnsPerServer int
	// CallTimeout bounds every coordinator RPC (see
	// client.Config.CallTimeout); zero disables per-call deadlines.
	CallTimeout time.Duration
	// DeadlockPoll is every coordinator's deadlock-detector poll
	// interval (see client.Config.DeadlockPoll).
	DeadlockPoll time.Duration
	// Timers supplies timed waits for every server and coordinator the
	// cluster creates, plus the cluster's own failover barriers. Nil
	// means SystemTimers; the fault bed passes a clock.Virtual.
	Timers clock.Timers
}

// endpointNetwork is implemented by transports that hand out
// per-process views of one shared network (the fault bed's
// faultbed.Net), so every frame is attributable to a (from, to) link.
// Servers get the view named by their address; client i gets
// "client-i".
type endpointNetwork interface {
	Endpoint(name string) transport.Network
}

// Cluster is a running set of servers plus the plumbing to create
// coordinators against them.
type Cluster struct {
	cfg     Config
	network transport.Network
	timers  clock.Timers
	addrs   []string
	// serverCfgs are the resolved per-server configurations (address
	// and network view filled in), kept so RestartServer can bring a
	// crashed server back with the same identity.
	serverCfgs []server.Config

	// director is the replication membership authority (nil when
	// Replicas <= 1). It lives in the harness on purpose: the paper's
	// algorithm needs only a tiny, rarely-consulted authority, and
	// replicating it is out of scope (see package repl).
	director *repl.Director

	mu      sync.Mutex
	servers []*server.Server // nil slots are stopped servers
	// procs maps every server address — heads and standbys — to its
	// running instance (nil when stopped). servers above stays the
	// index-addressed view of the original heads for the legacy
	// stop/restart API.
	procs        map[string]*server.Server
	clients      []*client.Client
	nextClientID int32

	ts *tsservice.Service
}

// directorRouter adapts the embedded repl.Director to client.Router.
// Route reads the live view; Refresh is a no-op because the local
// director is always current (the hook exists for remote directories
// that cache).
type directorRouter struct{ d *repl.Director }

func (r directorRouter) Route(p int) (string, uint64) {
	v := r.d.View(p)
	return v.Head, v.Epoch
}

func (r directorRouter) Refresh(int) {}

// netFor returns the network view for the named endpoint (pass-through
// unless the transport partitions by endpoint).
func (c *Cluster) netFor(name string) transport.Network {
	if en, ok := c.network.(endpointNetwork); ok {
		return en.Endpoint(name)
	}
	return c.network
}

// Start launches the cluster's servers.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 3
	}
	if cfg.Bed == 0 {
		cfg.Bed = BedLocal
	}
	network := cfg.Network
	if network == nil {
		network = transport.NewMem(LatencyFor(cfg.Bed))
	}
	if cfg.ServerConfig.Timers == nil {
		cfg.ServerConfig.Timers = cfg.Timers
	}
	c := &Cluster{cfg: cfg, network: network, timers: clock.OrSystem(cfg.Timers), nextClientID: 1, procs: make(map[string]*server.Server)}
	replicated := cfg.Replicas > 1
	var chains [][]string
	for i := 0; i < cfg.Servers; i++ {
		scfg := cfg.ServerConfig
		scfg.Addr = fmt.Sprintf("server-%d", i)
		if _, isTCP := network.(transport.TCP); isTCP {
			// Real sockets: bind loopback ephemeral ports; the server's
			// identity is the resolved srv.Addr().
			scfg.Addr = "127.0.0.1:0"
		} else {
			scfg.Network = c.netFor(scfg.Addr)
		}
		if scfg.Network == nil {
			scfg.Network = network
		}
		if replicated {
			scfg.Repl = c.replConfigFrom(cfg.ServerConfig.Repl)
		}
		srv, err := server.New(scfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: start server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
		c.procs[srv.Addr()] = srv
		// Remember the resolved identity so a restart rebinds the same
		// address (for TCP, the ephemeral port that was allocated).
		scfg.Addr = srv.Addr()
		c.serverCfgs = append(c.serverCfgs, scfg)
		if !replicated {
			continue
		}
		chain := []string{srv.Addr()}
		for r := 1; r < cfg.Replicas; r++ {
			sscfg := cfg.ServerConfig
			sscfg.Addr = fmt.Sprintf("server-%d.%d", i, r)
			if _, isTCP := network.(transport.TCP); isTCP {
				sscfg.Addr = "127.0.0.1:0"
			} else {
				sscfg.Network = c.netFor(sscfg.Addr)
			}
			if sscfg.Network == nil {
				sscfg.Network = network
			}
			sscfg.Repl = c.replConfigFrom(cfg.ServerConfig.Repl)
			sscfg.Repl.Standby = true
			sscfg.Repl.Upstream = srv.Addr()
			ssrv, err := server.New(sscfg)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: start replica %d.%d: %w", i, r, err)
			}
			chain = append(chain, ssrv.Addr())
			c.procs[ssrv.Addr()] = ssrv
		}
		chains = append(chains, chain)
	}
	if replicated {
		c.director = repl.NewDirector(chains)
	}
	return c, nil
}

// replConfigFrom builds one replica's server.ReplConfig at epoch 1,
// inheriting tuning knobs (PullInterval, LogCap) from the base template
// when the caller set one.
func (c *Cluster) replConfigFrom(base *server.ReplConfig) *server.ReplConfig {
	r := &server.ReplConfig{Epoch: 1}
	if base != nil {
		r.PullInterval = base.PullInterval
		r.LogCap = base.LogCap
	}
	return r
}

// StopServer crash-stops server i: its listener and connections close
// immediately and its entire state — versions, locks, commitment
// objects — is lost, as in the paper's crash failure model. In-flight
// requests against it fail; it is an error to stop a stopped server.
func (c *Cluster) StopServer(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.servers) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no server %d", i)
	}
	srv := c.servers[i]
	c.servers[i] = nil
	c.procs[c.addrs[i]] = nil
	c.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("cluster: server %d already stopped", i)
	}
	return srv.Close()
}

// RestartServer brings a stopped server back empty on its original
// address: the identity survives the crash, the state does not.
// Coordinators reconnect on their next call (their broken connections
// are evicted and redialed).
func (c *Cluster) RestartServer(i int) error {
	c.mu.Lock()
	if i < 0 || i >= len(c.serverCfgs) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no server %d", i)
	}
	if c.servers[i] != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: server %d is already running", i)
	}
	scfg := c.serverCfgs[i]
	c.mu.Unlock()
	srv, err := server.New(scfg)
	if err != nil {
		return fmt.Errorf("cluster: restart server %d: %w", i, err)
	}
	c.mu.Lock()
	c.servers[i] = srv
	c.procs[scfg.Addr] = srv
	c.mu.Unlock()
	return nil
}

// RestartServerAsReplica brings stopped server i back on its original
// address as a catching-up standby of partition i's current head: it
// snapshots and then tails the head's log, and the director appends it
// to the chain so a later failover can promote it. This is the
// replicated counterpart of RestartServer (which restarts empty and is
// left untouched for unreplicated scenarios); it requires a replicated
// cluster.
func (c *Cluster) RestartServerAsReplica(i int) error {
	if c.director == nil {
		return fmt.Errorf("cluster: RestartServerAsReplica needs a replicated cluster (Replicas > 1)")
	}
	c.mu.Lock()
	if i < 0 || i >= len(c.serverCfgs) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no server %d", i)
	}
	if c.servers[i] != nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: server %d is already running", i)
	}
	scfg := c.serverCfgs[i]
	c.mu.Unlock()
	v := c.director.View(i)
	r := c.replConfigFrom(c.cfg.ServerConfig.Repl)
	r.Epoch = v.Epoch
	r.Standby = true
	r.Upstream = v.Head
	scfg.Repl = r
	srv, err := server.New(scfg)
	if err != nil {
		return fmt.Errorf("cluster: restart server %d as replica: %w", i, err)
	}
	c.mu.Lock()
	c.servers[i] = srv
	c.procs[scfg.Addr] = srv
	c.mu.Unlock()
	c.director.AddStandby(i, scfg.Addr)
	return nil
}

// Director returns the replication membership authority (nil when the
// cluster is unreplicated).
func (c *Cluster) Director() *repl.Director { return c.director }

// ServerByAddr returns the running server at addr, or nil.
func (c *Cluster) ServerByAddr(addr string) *server.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.procs[addr]
}

// KillHead crash-stops partition p's current head (per the director's
// view) and returns its address. The partition is unavailable until
// PromoteReplica installs the next epoch.
func (c *Cluster) KillHead(p int) (string, error) {
	if c.director == nil {
		return "", fmt.Errorf("cluster: KillHead needs a replicated cluster (Replicas > 1)")
	}
	v := c.director.View(p)
	c.mu.Lock()
	srv := c.procs[v.Head]
	c.procs[v.Head] = nil
	// Keep the index-addressed view consistent when the head was an
	// original slot server.
	for i, a := range c.addrs {
		if a == v.Head {
			c.servers[i] = nil
		}
	}
	c.mu.Unlock()
	if srv == nil {
		return v.Head, fmt.Errorf("cluster: head %s of partition %d already stopped", v.Head, p)
	}
	return v.Head, srv.Close()
}

// PromoteReplica fails partition p over to its first standby: the
// director bumps the epoch, the standby stops pulling and becomes the
// head, and — for planned handovers where the old head is still alive —
// the old head is demoted so it fences everything that still routes to
// it. Returns the new view.
func (c *Cluster) PromoteReplica(p int) (repl.View, error) {
	if c.director == nil {
		return repl.View{}, fmt.Errorf("cluster: PromoteReplica needs a replicated cluster (Replicas > 1)")
	}
	old := c.director.View(p)
	v, err := c.director.Promote(p)
	if err != nil {
		return repl.View{}, err
	}
	c.mu.Lock()
	oldSrv := c.procs[old.Head]
	newSrv := c.procs[v.Head]
	c.mu.Unlock()
	if oldSrv != nil {
		oldSrv.Demote(v.Epoch)
	}
	if newSrv == nil {
		return v, fmt.Errorf("cluster: standby %s of partition %d is not running", v.Head, p)
	}
	newSrv.Promote(v.Epoch)
	return v, nil
}

// FailoverKill fails partition p over to its first standby under live
// load and then crash-stops the old head. Unlike KillHead +
// PromoteReplica (crash first, promote with whatever the standby had —
// which the fault bed only uses behind a settle+drain barrier), the
// sequence here is lossless under traffic: flip the routes, fence the
// old head (it finishes in-flight freezes, logging them, and bounces
// everything new with StatusWrongEpoch), drain its log tail into the
// standby, and only then let the standby serve and kill the old head.
// The unavailability window a client observes runs from the route flip
// to the standby's promotion.
func (c *Cluster) FailoverKill(p int) (repl.View, error) {
	if c.director == nil {
		return repl.View{}, fmt.Errorf("cluster: FailoverKill needs a replicated cluster (Replicas > 1)")
	}
	old := c.director.View(p)
	v, err := c.director.Promote(p)
	if err != nil {
		return repl.View{}, err
	}
	c.mu.Lock()
	oldSrv := c.procs[old.Head]
	newSrv := c.procs[v.Head]
	c.mu.Unlock()
	if newSrv == nil {
		return v, fmt.Errorf("cluster: standby %s of partition %d is not running", v.Head, p)
	}
	if oldSrv != nil {
		oldSrv.Demote(v.Epoch)
		// In-flight commits first: a coordinator that decided commit
		// before the demotion still casts its freeze batches at the old
		// head (the fence deliberately admits freeze/release — see
		// handleFreezeBatch), and those installs must reach the log
		// before the standby is drained against it. Wait for the old
		// head's transaction records to empty out; new write locks are
		// fenced (including a post-acquisition re-check), so once live
		// transactions hit zero no further install can occur and the
		// log watermark is fixed.
		stable := 0
		for i := 0; i < 5000 && stable < 2; i++ {
			if oldSrv.LiveTxns() == 0 {
				stable++
			} else {
				stable = 0
			}
			if stable < 2 {
				c.timers.Sleep(time.Millisecond)
			}
		}
		if stable < 2 {
			return v, fmt.Errorf("cluster: old head %s of partition %d never resolved its in-flight transactions", old.Head, p)
		}
		// Drain: the standby keeps pulling from the fenced old head until
		// it has applied that fixed watermark. Two consecutive caught-up
		// observations guard against a watermark read racing the last
		// in-flight freeze handler above.
		stable = 0
		for i := 0; i < 5000 && stable < 2; i++ {
			if newSrv.AppliedLSN() >= oldSrv.LogWatermark() {
				stable++
			} else {
				stable = 0
			}
			if stable < 2 {
				c.timers.Sleep(time.Millisecond)
			}
		}
		if stable < 2 {
			return v, fmt.Errorf("cluster: standby %s never drained old head %s", v.Head, old.Head)
		}
	}
	newSrv.Promote(v.Epoch)
	if oldSrv != nil {
		c.mu.Lock()
		c.procs[old.Head] = nil
		for i, a := range c.addrs {
			if a == old.Head {
				c.servers[i] = nil
			}
		}
		c.mu.Unlock()
		_ = oldSrv.Close()
	}
	return v, nil
}

// ReplicaLag returns the maximum catch-up lag among partition p's
// standbys, in log records: 0 means every standby has applied every
// install the head has logged *as of this call*; -1 means the head is
// down. The comparison is head-side (the head's current log watermark
// against each standby's applied LSN), not the standby's self-reported
// lag — that one is only as fresh as the standby's last pull and reads
// 0 in the window between a commit and the pull that fetches it, which
// is exactly when a lag barrier runs.
func (c *Cluster) ReplicaLag(p int) int64 {
	if c.director == nil {
		return 0
	}
	v := c.director.View(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.procs[v.Head]
	if head == nil {
		return -1
	}
	w := head.LogWatermark()
	var max int64
	for _, addr := range v.Standbys {
		srv := c.procs[addr]
		if srv == nil {
			continue
		}
		applied := srv.AppliedLSN()
		if lag := int64(w) - int64(applied); lag > max {
			max = lag
		}
	}
	return max
}

// LiveAddrs returns the sorted addresses of every currently running
// server — heads and standbys alike. Unlike Addrs (the fixed original
// slots), this tracks replicated-membership changes: a promoted standby
// is included, a killed head is not.
func (c *Cluster) LiveAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.procs))
	for a, srv := range c.procs {
		if srv != nil {
			addrs = append(addrs, a)
		}
	}
	sort.Strings(addrs)
	return addrs
}

// ServerRunning reports whether server i is currently up.
func (c *Cluster) ServerRunning(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return i >= 0 && i < len(c.servers) && c.servers[i] != nil
}

// Addrs returns the server addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// Network returns the cluster's transport.
func (c *Cluster) Network() transport.Network { return c.network }

// NewClient creates a coordinator with a fresh client id. src may be nil
// for the system clock.
func (c *Cluster) NewClient(mode client.Mode, delta int64, src clock.Source) (*client.Client, error) {
	c.mu.Lock()
	id := c.nextClientID
	c.nextClientID++
	c.mu.Unlock()
	var router client.Router
	if c.director != nil {
		router = directorRouter{c.director}
	}
	cl, err := client.New(client.Config{
		ID:             id,
		Servers:        c.addrs,
		Router:         router,
		Network:        c.netFor(fmt.Sprintf("client-%d", id)),
		Mode:           mode,
		Delta:          delta,
		Clock:          src,
		Recorder:       c.cfg.Recorder,
		ConnsPerServer: c.cfg.ConnsPerServer,
		CallTimeout:    c.cfg.CallTimeout,
		DeadlockPoll:   c.cfg.DeadlockPoll,
		Timers:         c.cfg.Timers,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl, nil
}

// StartTimestampService launches the §8.1 purge/advance broadcaster with
// the given period and retention. It uses the first client (creating one
// if needed) as the purge channel.
func (c *Cluster) StartTimestampService(interval, retention time.Duration) error {
	cl, err := c.NewClient(client.ModeTILEarly, 0, nil)
	if err != nil {
		return err
	}
	c.ts = tsservice.Start(tsservice.Config{
		Interval:  interval,
		Retention: retention,
		Broadcast: func(bound timestamp.Timestamp) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _, _ = cl.PurgeServers(ctx, bound)
			c.mu.Lock()
			clients := append([]*client.Client(nil), c.clients...)
			c.mu.Unlock()
			for _, other := range clients {
				other.AdvanceClock(bound.Time)
			}
		},
	})
	return nil
}

// Stats aggregates state-size statistics across all servers.
func (c *Cluster) Stats(ctx context.Context) (wire.StatsResp, error) {
	cl, err := c.NewClient(client.ModeTILEarly, 0, nil)
	if err != nil {
		return wire.StatsResp{}, err
	}
	defer func() {
		_ = cl.Close()
	}()
	c.mu.Lock()
	addrs := append([]string(nil), c.addrs...)
	if c.director != nil {
		// Replicated: every live replica reports (the original heads may
		// be dead after a failover; standbys carry the repl counters).
		addrs = addrs[:0]
		for a, srv := range c.procs {
			if srv != nil {
				addrs = append(addrs, a)
			}
		}
		sort.Strings(addrs)
	}
	c.mu.Unlock()
	var total wire.StatsResp
	for _, addr := range addrs {
		st, err := cl.ServerStats(ctx, addr)
		if err != nil {
			return total, err
		}
		total.Keys += st.Keys
		total.LockEntries += st.LockEntries
		total.FrozenLocks += st.FrozenLocks
		total.Versions += st.Versions
		total.ReplPromotions += st.ReplPromotions
		total.ReplWrongEpoch += st.ReplWrongEpoch
		total.ReplCatchupBytes += st.ReplCatchupBytes
		if st.ReplLag > total.ReplLag {
			total.ReplLag = st.ReplLag
		}
		if st.ReplEpoch > total.ReplEpoch {
			total.ReplEpoch = st.ReplEpoch
		}
	}
	return total, nil
}

// Close stops the timestamp service, clients and servers.
func (c *Cluster) Close() {
	if c.ts != nil {
		c.ts.Stop()
		c.ts = nil
	}
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.servers = nil
	procs := c.procs
	c.procs = map[string]*server.Server{}
	c.mu.Unlock()
	for _, cl := range clients {
		_ = cl.Close()
	}
	for _, s := range procs {
		if s != nil {
			_ = s.Close()
		}
	}
}
