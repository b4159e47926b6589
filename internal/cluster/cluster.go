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
	// addrs[i] is slot i's resolved address: the original head of
	// partition i, and the identity StopServer(i) and RestartServer(i)
	// act on. Fixed at Start.
	addrs []string

	// director is the replication membership authority (nil when
	// Replicas <= 1). It lives in the harness on purpose: the paper's
	// algorithm needs only a tiny, rarely-consulted authority, and
	// replicating it is out of scope (see package repl).
	director *repl.Director

	mu sync.Mutex
	// procs is the membership table: every running server — slot
	// servers and standbys alike — by address. A stopped server has no
	// entry.
	procs        map[string]*server.Server
	clients      []*client.Client
	nextClientID int32

	ts *tsservice.Service
}

// directorRouter adapts the embedded repl.Director to client.Router:
// Route reads the live view.
type directorRouter struct{ d *repl.Director }

func (r directorRouter) Route(p int) (string, uint64) {
	v := r.d.View(p)
	return v.Head, v.Epoch
}

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
	var chains [][]string
	for i := 0; i < cfg.Servers; i++ {
		head, err := c.startServer(c.serverConfig(c.listenAddr(fmt.Sprintf("server-%d", i)), 1, ""))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: start server %d: %w", i, err)
		}
		c.addrs = append(c.addrs, head)
		if cfg.Replicas <= 1 {
			continue
		}
		chain := []string{head}
		for r := 1; r < cfg.Replicas; r++ {
			standby, err := c.startServer(c.serverConfig(c.listenAddr(fmt.Sprintf("server-%d.%d", i, r)), 1, head))
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: start replica %d.%d: %w", i, r, err)
			}
			chain = append(chain, standby)
		}
		chains = append(chains, chain)
	}
	if cfg.Replicas > 1 {
		c.director = repl.NewDirector(chains)
	}
	return c, nil
}

// listenAddr is the address a new server named name binds: the name
// itself, except over real sockets, where it is a loopback ephemeral
// port and the server's identity is the address it resolves to.
func (c *Cluster) listenAddr(name string) string {
	if _, isTCP := c.network.(transport.TCP); isTCP {
		return "127.0.0.1:0"
	}
	return name
}

// serverConfig builds the configuration of the server at addr, for
// Start and RestartServer alike: the base template bound to addr and to
// that endpoint's view of the network. On a replicated cluster it
// carries a ReplConfig at epoch; a non-empty upstream makes the server a
// standby pulling from there.
func (c *Cluster) serverConfig(addr string, epoch uint64, upstream string) server.Config {
	scfg := c.cfg.ServerConfig
	scfg.Addr = addr
	scfg.Network = c.netFor(addr)
	if c.cfg.Replicas > 1 {
		scfg.Repl = &server.ReplConfig{Epoch: epoch, Standby: upstream != "", Upstream: upstream}
	}
	return scfg
}

// startServer launches a server and enters it in the membership table
// under the address it resolved.
func (c *Cluster) startServer(scfg server.Config) (string, error) {
	srv, err := server.New(scfg)
	if err != nil {
		return "", err
	}
	c.mu.Lock()
	c.procs[srv.Addr()] = srv
	c.mu.Unlock()
	return srv.Addr(), nil
}

// StopServer crash-stops server i: its listener and connections close
// immediately and its entire state — versions, locks, commitment
// objects — is lost, as in the paper's crash failure model. In-flight
// requests against it fail; it is an error to stop a stopped server.
func (c *Cluster) StopServer(i int) error {
	if i < 0 || i >= len(c.addrs) {
		return fmt.Errorf("cluster: no server %d", i)
	}
	c.mu.Lock()
	srv := c.procs[c.addrs[i]]
	delete(c.procs, c.addrs[i])
	c.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("cluster: server %d already stopped", i)
	}
	return srv.Close()
}

// RestartServer brings stopped server i back on its original address.
// What it comes back as follows from the cluster, never from the
// caller. Unreplicated, it comes back empty: the identity survives the
// crash, the state does not. Replicated, it rejoins as a catching-up
// standby of partition i's current head — it snapshots and then tails
// the head's log, and the director appends it to the chain so a later
// Failover can promote it — which a server the director still lists as
// that head cannot do. Coordinators reconnect on their next call (their
// broken connections are evicted and redialed).
func (c *Cluster) RestartServer(i int) error {
	if i < 0 || i >= len(c.addrs) {
		return fmt.Errorf("cluster: no server %d", i)
	}
	addr := c.addrs[i]
	if c.ServerByAddr(addr) != nil {
		return fmt.Errorf("cluster: server %d is already running", i)
	}
	var v repl.View
	if c.director != nil {
		if v = c.director.View(i); v.Head == addr {
			return fmt.Errorf("cluster: server %d is still the head of partition %d: fail it over first", i, i)
		}
	}
	if _, err := c.startServer(c.serverConfig(addr, v.Epoch, v.Head)); err != nil {
		return fmt.Errorf("cluster: restart server %d: %w", i, err)
	}
	if c.director != nil {
		c.director.AddStandby(i, addr)
	}
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

// Failover fails partition p over to its first standby and crash-stops
// the old head; it is lossless under live load. The elected standby is
// looked up before the director is touched, so a failover that cannot
// complete leaves the view as it was. Then: flip the routes, fence the
// old head (it finishes in-flight freezes, logging them, and bounces
// everything new with StatusWrongEpoch), drain its log tail into the
// standby, and only then let the standby serve and kill the old head.
// An old head that is already dead has nothing to fence or drain: the
// standby is promoted with whatever it had applied. The unavailability
// window a client observes runs from the route flip to the standby's
// promotion. Returns the new view.
func (c *Cluster) Failover(p int) (repl.View, error) {
	if c.director == nil {
		return repl.View{}, fmt.Errorf("cluster: Failover needs a replicated cluster (Replicas > 1)")
	}
	if p < 0 || p >= len(c.addrs) {
		return repl.View{}, fmt.Errorf("cluster: no partition %d", p)
	}
	old := c.director.View(p)
	if len(old.Standbys) == 0 {
		return repl.View{}, fmt.Errorf("cluster: partition %d has no standby to promote", p)
	}
	oldSrv, newSrv := c.ServerByAddr(old.Head), c.ServerByAddr(old.Standbys[0])
	if newSrv == nil {
		return repl.View{}, fmt.Errorf("cluster: standby %s of partition %d is not running", old.Standbys[0], p)
	}
	v, err := c.director.Promote(p)
	if err != nil {
		return repl.View{}, err
	}
	if oldSrv != nil {
		oldSrv.Demote(v.Epoch)
		// In-flight commits first: a coordinator that decided commit
		// before the demotion still casts its commit's tail at the old
		// head (the fence deliberately admits freeze/release — see
		// handleReleaseBatch), and those installs must reach the log
		// before the standby is drained against it. Wait for the old
		// head's transaction records to empty out; new write locks are
		// fenced (including a post-acquisition re-check), so once live
		// transactions hit zero no further install can occur and the
		// log watermark is fixed.
		if !c.holds(func() bool { return oldSrv.LiveTxns() == 0 }) {
			return v, fmt.Errorf("cluster: old head %s of partition %d never resolved its in-flight transactions", old.Head, p)
		}
		// Drain: the standby keeps pulling from the fenced old head until
		// it has applied that fixed watermark.
		if !c.holds(func() bool { return newSrv.AppliedLSN() >= oldSrv.LogWatermark() }) {
			return v, fmt.Errorf("cluster: standby %s never drained old head %s", v.Head, old.Head)
		}
	}
	newSrv.Promote(v.Epoch)
	if oldSrv != nil {
		c.mu.Lock()
		delete(c.procs, old.Head)
		c.mu.Unlock()
		_ = oldSrv.Close() // crash-stop: the server's state is discarded either way
	}
	return v, nil
}

// holds polls cond every millisecond, for up to five seconds of the
// cluster's timeline, until two consecutive observations hold — a
// single one can race the last in-flight handler.
func (c *Cluster) holds(cond func() bool) bool {
	stable := 0
	for i := 0; i < 5000 && stable < 2; i++ {
		if cond() {
			stable++
		} else {
			stable = 0
		}
		if stable < 2 {
			c.timers.Sleep(time.Millisecond)
		}
	}
	return stable == 2
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
// slots), this tracks membership changes: a promoted standby is
// included, a stopped server is not.
func (c *Cluster) LiveAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.procs))
	for a := range c.procs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// Addrs returns the server addresses.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

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
		ID:           id,
		Servers:      c.addrs,
		Router:       router,
		Network:      c.netFor(fmt.Sprintf("client-%d", id)),
		Mode:         mode,
		Delta:        delta,
		Clock:        src,
		Recorder:     c.cfg.Recorder,
		CallTimeout:  c.cfg.CallTimeout,
		DeadlockPoll: c.cfg.DeadlockPoll,
		Timers:       c.cfg.Timers,
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

// Stats aggregates state-size statistics across every running server.
func (c *Cluster) Stats(ctx context.Context) (wire.StatsResp, error) {
	cl, err := c.NewClient(client.ModeTILEarly, 0, nil)
	if err != nil {
		return wire.StatsResp{}, err
	}
	defer func() {
		_ = cl.Close()
	}()
	var total wire.StatsResp
	for _, addr := range c.LiveAddrs() {
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
	procs := c.procs
	c.procs = map[string]*server.Server{}
	c.mu.Unlock()
	for _, cl := range clients {
		_ = cl.Close()
	}
	for _, s := range procs {
		_ = s.Close()
	}
}
