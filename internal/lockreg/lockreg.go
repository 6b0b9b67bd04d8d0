// Package lockreg is the single source of truth for lock construction.
//
// The paper's evaluation is a matrix of lock algorithm × workload, and
// every benchmark, example and test in this repository used to build its
// corner of that matrix by hand, each with its own lock-by-name switch,
// knob spellings and coverage. lockreg replaces those switches with one
// registry: every algorithm in the tree registers a Spec here, and every
// consumer constructs locks through Build (or the repro facade), so a new
// algorithm or a new workload becomes a one-liner instead of an edit to
// each binary.
//
// # Names
//
// Spec.Name is canonical and always equals the string the built lock's
// Name() method reports (the conformance suite enforces this). Lookup is
// case-insensitive and also accepts each Spec's Aliases, so CLI flags may
// spell "cna-opt", "CNA-OPT" or "cna (opt)" and reach the same algorithm.
//
// # Environments and options
//
// An Env carries the machine-shaped inputs every constructor may need:
// the thread-ID bound, the NUMA topology (socket count) and an optional
// shared CNA node Arena. Functional options (WithThreshold, WithBackoff,
// WithMaxLocalPasses, ...) tune the per-algorithm policy knobs; options
// an algorithm does not understand are ignored, so one option list can
// configure a whole sweep. Defaults are the paper's settings.
package lockreg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/locks/cohort"
	"repro/internal/locks/fissile"
	"repro/internal/locks/gcr"
	"repro/internal/locks/hmcs"
	"repro/internal/locks/rw"
	"repro/internal/numa"
	"repro/internal/waiter"
)

// Canonical algorithm names, one per registered Spec. Each equals the
// Name() string of the lock the Spec builds. The strings live in the
// leaf package internal/locknames so the simulator can share them
// without linking the real lock implementations.
const (
	NameTAS     = locknames.TAS
	NameTTAS    = locknames.TTAS
	NameBOTAS   = locknames.BOTAS
	NameTicket  = locknames.Ticket
	NamePTL     = locknames.PTL
	NameMCS     = locknames.MCS
	NameCLH     = locknames.CLH
	NameHBO     = locknames.HBO
	NameMCSCR   = locknames.MCSCR
	NameCBOMCS  = locknames.CBOMCS
	NameCTKTTKT = locknames.CTKTTKT
	NameCPTLTKT = locknames.CPTLTKT
	NameHMCS    = locknames.HMCS
	NameCNA     = locknames.CNA
	NameCNAOpt  = locknames.CNAOpt
)

// Stdlib baselines: the Go runtime's own mutexes as registry citizens,
// so sweeps and conformance runs compare against sync.Mutex out of the
// box.
const (
	NameStd   = locknames.Std
	NameStdRW = locknames.StdRW
)

// Spin-then-park variants of the queue locks with a well-defined waker
// (see registerParkVariants): the same algorithms built with
// waiter.SpinThenPark{}, under the base name plus locknames.ParkSuffix.
const (
	NameMCSPark    = locknames.MCS + locknames.ParkSuffix
	NameCLHPark    = locknames.CLH + locknames.ParkSuffix
	NameMCSCRPark  = locknames.MCSCR + locknames.ParkSuffix
	NameCBOMCSPark = locknames.CBOMCS + locknames.ParkSuffix
	NameHMCSPark   = locknames.HMCS + locknames.ParkSuffix
	NameCNAPark    = locknames.CNA + locknames.ParkSuffix
	NameCNAOptPark = locknames.CNAOpt + locknames.ParkSuffix
)

// Reader-writer variants (see registerRWVariants): the cohort-RW
// construction of internal/locks/rw with the named base algorithm as
// its writer gate, under the base name plus locknames.RWSuffix. The
// stdlib "std-rw" spec completes the family as the runtime baseline.
const (
	NameMCSRW    = locknames.MCS + locknames.RWSuffix
	NameCLHRW    = locknames.CLH + locknames.RWSuffix
	NameCBOMCSRW = locknames.CBOMCS + locknames.RWSuffix
	NameHMCSRW   = locknames.HMCS + locknames.RWSuffix
	NameCNARW    = locknames.CNA + locknames.RWSuffix
	NameCNAOptRW = locknames.CNAOpt + locknames.RWSuffix
)

// Fissile variants (see registerFissileVariants): the internal/locks/
// fissile composite with the named base algorithm as its queue-path
// fallback, under the base name plus locknames.FissileSuffix —
// uncontended acquires take a TAS outer word with one CAS, contended
// acquires fall back to the base queue.
const (
	NameMCSFissile    = locknames.MCS + locknames.FissileSuffix
	NameCLHFissile    = locknames.CLH + locknames.FissileSuffix
	NameMCSCRFissile  = locknames.MCSCR + locknames.FissileSuffix
	NameCBOMCSFissile = locknames.CBOMCS + locknames.FissileSuffix
	NameHMCSFissile   = locknames.HMCS + locknames.FissileSuffix
	NameCNAFissile    = locknames.CNA + locknames.FissileSuffix
	NameCNAOptFissile = locknames.CNAOpt + locknames.FissileSuffix
)

// Concurrency-restriction variants (see registerCRVariants): the
// internal/locks/gcr admission gate over the named base algorithm,
// under the base name plus locknames.CRSuffix — a bounded active set
// reaches the inner lock, surplus arrivals park on a passive list and
// rotate back in, so throughput stays flat under deep oversubscription.
const (
	NameStdCR    = locknames.Std + locknames.CRSuffix
	NameTicketCR = locknames.Ticket + locknames.CRSuffix
	// NameMCSGCR is "MCS-cr"; the natural NameMCSCR spelling already
	// names the Malthusian lock ("MCSCR", Dice 2017), so the gated-MCS
	// constant carries the GCR tag instead.
	NameMCSGCR   = locknames.MCS + locknames.CRSuffix
	NameCNACR    = locknames.CNA + locknames.CRSuffix
	NameCNAOptCR = locknames.CNAOpt + locknames.CRSuffix
	NameCBOMCSCR = locknames.CBOMCS + locknames.CRSuffix
	NameHMCSCR   = locknames.HMCS + locknames.CRSuffix
)

// Env carries the construction-time environment shared by all lock
// algorithms: how many threads will use the lock, what machine they run
// on, and (for CNA) where queue nodes live.
type Env struct {
	// MaxThreads bounds the thread IDs that will use the lock; values
	// below 1 are treated as 1.
	MaxThreads int
	// Topology is the (virtual) NUMA machine; its socket count sizes the
	// hierarchical locks. A zero Topology means the paper's primary
	// 2-socket machine.
	Topology numa.Topology
	// Arena, when non-nil, is the shared CNA queue-node storage every CNA
	// lock built from this Env draws from — the paper's "million locks,
	// one arena" deployment. When nil, each CNA lock gets a private arena.
	Arena *core.Arena
}

// Sockets returns the topology's socket count (at least 1).
func (e Env) Sockets() int {
	if e.Topology.Sockets < 1 {
		return numa.TwoSocketXeonE5().Sockets
	}
	return e.Topology.Sockets
}

// Threads returns the thread-ID bound (at least 1).
func (e Env) Threads() int {
	if e.MaxThreads < 1 {
		return 1
	}
	return e.MaxThreads
}

// arena returns the shared arena, or a private one sized for the Env.
func (e Env) arena() *core.Arena {
	if e.Arena != nil {
		return e.Arena
	}
	return core.NewArena(e.Threads())
}

// Spec describes one registered lock algorithm.
type Spec struct {
	// Name is the canonical spelling, equal to the built lock's Name().
	Name string
	// Aliases are additional spellings Lookup accepts (case-insensitive,
	// like Name itself).
	Aliases []string
	// Description is a one-line summary for CLI help text.
	Description string
	// NUMAAware reports whether the algorithm uses socket identity.
	NUMAAware bool
	// RW reports whether the built lock implements locks.RWMutex — a
	// shared read side in addition to the writer contract. RW specs are
	// picked up by the RW conformance storms, the read-ratio benchmark
	// sweeps and the kvserver read path; consumers that only need a
	// plain mutex can use an RW spec unchanged (its writer side is the
	// full locks.Mutex contract).
	RW bool
	// Wait is the canonical name of the waiting policy the Spec builds
	// with ("spin" for every base algorithm; "spin-park" for the
	// registered *-park variants; "runtime" for the stdlib baselines,
	// whose waiting the Go runtime owns). Reports carry it as the
	// wait_policy field so spin-vs-park curves can be grouped without
	// parsing names.
	Wait string
	// Build constructs a lock instance for the given environment.
	Build func(Env, ...Option) locks.Mutex
	// Native, when set, builds the algorithm's own goroutine-native form
	// directly — only the stdlib baselines have one (sync.Mutex needs no
	// thread slots). When nil, the goroutine-native path
	// (internal/gonative, repro.NewMutex) wraps Build's lock in the
	// thread-slot adapter instead. Kept as a Spec field so "how do I get
	// this lock as a sync.Locker" is answered by the registry, not by
	// callers special-casing names. Native builds carry the whole
	// locks.NativeMutex contract, timed acquires included
	// (locks.ContextLock gives LockContext away once LockTimeout exists).
	Native func(Env, ...Option) locks.NativeMutex
}

// registry holds Specs in registration order (the order All and Names
// report) plus a normalized-name index.
var registry struct {
	specs []Spec
	index map[string]int
}

// normalize maps a user spelling to an index key: lower-cased, with
// spaces, parentheses and underscores treated as interchangeable with
// dashes ("CNA (opt)" == "cna-opt" == "cna_opt").
func normalize(name string) string {
	s := strings.ToLower(strings.TrimSpace(name))
	s = strings.NewReplacer(" ", "-", "_", "-", "(", "", ")", "").Replace(s)
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "-")
	}
	return strings.Trim(s, "-")
}

// Register adds a Spec to the registry. It panics on duplicate or empty
// names — registration happens at init time, so a clash is a programming
// error, not a runtime condition.
//
// Register wraps the Spec's Build so that cross-cutting options are
// honoured uniformly: WithStats(true) calls EnableStats on any built
// lock implementing locks.StatsEnabler, and WithWait sets the waiting
// policy on any lock implementing waiter.Setter, so individual Build
// funcs stay oblivious to instrumentation and wait plumbing.
func Register(s Spec) {
	if s.Name == "" || s.Build == nil {
		panic("lockreg: Spec needs a Name and a Build func")
	}
	if s.Wait == "" {
		s.Wait = waiter.Default.Name()
	}
	build := s.Build
	s.Build = func(env Env, opts ...Option) locks.Mutex {
		m := build(env, opts...)
		c := apply(opts)
		if c.wait != nil {
			if ws, ok := m.(waiter.Setter); ok {
				ws.SetWait(c.wait)
			}
		}
		if c.stats {
			if se, ok := m.(locks.StatsEnabler); ok {
				se.EnableStats()
			}
		}
		return m
	}
	if registry.index == nil {
		registry.index = make(map[string]int)
	}
	i := len(registry.specs)
	for _, key := range append([]string{s.Name}, s.Aliases...) {
		k := normalize(key)
		if prev, dup := registry.index[k]; dup {
			if prev == i {
				continue // name and alias of the same spec normalize alike
			}
			panic(fmt.Sprintf("lockreg: name %q already registered by %q", key, registry.specs[prev].Name))
		}
		registry.index[k] = i
	}
	registry.specs = append(registry.specs, s)
}

// All returns every registered Spec in registration order (simple spin
// locks, then queue locks, then NUMA-aware locks).
func All() []Spec {
	out := make([]Spec, len(registry.specs))
	copy(out, registry.specs)
	return out
}

// Names returns the canonical names in registration order — a stable
// list for CLI help text and sweeps.
func Names() []string {
	out := make([]string, len(registry.specs))
	for i, s := range registry.specs {
		out[i] = s.Name
	}
	return out
}

// Lookup resolves a (case-insensitive) name or alias to its Spec.
func Lookup(name string) (Spec, bool) {
	i, ok := registry.index[normalize(name)]
	if !ok {
		return Spec{}, false
	}
	return registry.specs[i], true
}

// Build constructs the named lock in the given environment. The error of
// an unknown name lists every registered spelling.
func Build(name string, env Env, opts ...Option) (locks.Mutex, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, UnknownLockError(name)
	}
	return spec.Build(env, opts...), nil
}

// UnknownLockError is the error for an unresolvable lock name; it lists
// every registered spelling alongside the offending one. Exported so
// the goroutine-native builder (internal/gonative) reports unknown
// names identically to Build.
func UnknownLockError(name string) error {
	sorted := Names()
	sort.Strings(sorted)
	return fmt.Errorf("lockreg: unknown lock %q (known: %s)", name, strings.Join(sorted, ", "))
}

// Resolve turns a CLI-style comma-separated name list into Specs. The
// literal "all" (or an empty string) selects every registered algorithm
// in registration order; unknown names produce the same
// known-spellings error as Build.
func Resolve(list string) ([]Spec, error) {
	if k := normalize(list); k == "" || k == "all" {
		return All(), nil
	}
	var specs []Spec
	for _, name := range strings.Split(list, ",") {
		spec, ok := Lookup(name)
		if !ok {
			return nil, UnknownLockError(name)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// MustSpec resolves a (case-insensitive) name or alias to its Spec,
// panicking on unknown names — for tests and static call sites that
// need the Spec itself rather than a built lock.
func MustSpec(name string) Spec {
	spec, ok := Lookup(name)
	if !ok {
		panic(UnknownLockError(name))
	}
	return spec
}

// MustBuild is Build for callers with static names (examples, tests).
func MustBuild(name string, env Env, opts ...Option) locks.Mutex {
	m, err := Build(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

func init() {
	Register(Spec{
		Name:        NameTAS,
		Aliases:     []string{"test-and-set"},
		Description: "test-and-set spin lock: one word, global spinning, no fairness",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewTAS()
		},
	})
	Register(Spec{
		Name:        NameTTAS,
		Aliases:     []string{"test-and-test-and-set"},
		Description: "test-and-test-and-set: reads before the atomic swap to cut coherence traffic",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewTTAS()
		},
	})
	Register(Spec{
		Name:        NameBOTAS,
		Aliases:     []string{"backoff", "backoff-tas"},
		Description: "test-and-set with capped exponential backoff (the BO of C-BO-MCS)",
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			min, max := c.backoff(locks.DefaultBackoffMin, locks.DefaultBackoffMax)
			return locks.NewBackoffTAS(min, max)
		},
	})
	Register(Spec{
		Name:        NameTicket,
		Aliases:     []string{"ticket"},
		Description: "FIFO ticket lock: strictly fair, one word, global spinning",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewTicket()
		},
	})
	Register(Spec{
		Name:        NamePTL,
		Aliases:     []string{"partitioned-ticket"},
		Description: "partitioned ticket lock: grants striped across per-socket slots",
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			return locks.NewPartitionedTicket(c.slotsOr(env.Sockets()))
		},
	})
	Register(Spec{
		Name:        NameMCS,
		Description: "Mellor-Crummey/Scott queue lock: local spinning, the paper's baseline",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewMCS(env.Threads())
		},
	})
	Register(Spec{
		Name:        NameCLH,
		Description: "Craig/Landin/Hagersten queue lock: spins on the predecessor's node",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewCLH(env.Threads())
		},
	})
	Register(Spec{
		Name:        NameHBO,
		Aliases:     []string{"hierarchical-backoff"},
		Description: "hierarchical backoff lock: one word, remote waiters back off longer",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			if c.hboSet {
				return locks.NewHBO(c.hboLocalMin, c.hboLocalMax, c.hboRemoteMin, c.hboRemoteMax)
			}
			return locks.DefaultHBO()
		},
	})
	Register(Spec{
		Name:        NameMCSCR,
		Aliases:     []string{"malthusian"},
		Description: "Malthusian MCS: culls excess waiters to a passive list (Dice 2017)",
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			m := locks.NewMalthusian(env.Threads(),
				c.minActiveOr(locks.DefaultMalthusianMinActive),
				c.thresholdOr(locks.DefaultMalthusianReviveMask))
			if c.passivationDelaySet {
				m.SetPassivationDelay(c.passivationDelay)
			}
			return m
		},
	})
	Register(Spec{
		Name:        NameCBOMCS,
		Description: "cohort lock: backoff-TAS global, MCS locals (best cohort variant)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			return cohort.NewCBOMCS(env.Sockets(), env.Threads(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameCTKTTKT,
		Description: "cohort lock: ticket global, ticket locals",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			return cohort.NewCTKTTKT(env.Sockets(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameCPTLTKT,
		Description: "cohort lock: partitioned-ticket global, ticket locals",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			return cohort.NewCPTLTKT(env.Sockets(), c.maxLocalPassesOr(cohort.DefaultMaxLocalPasses))
		},
	})
	Register(Spec{
		Name:        NameHMCS,
		Description: "hierarchical MCS: per-socket queues plus a root queue (Chabbi 2015)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			c := apply(opts)
			return hmcs.New(env.Sockets(), env.Threads(), uint64(c.maxLocalPassesOr(int(hmcs.DefaultThreshold))))
		},
	})
	Register(Spec{
		Name:        NameCNA,
		Description: "compact NUMA-aware lock: one word of state (the paper's contribution)",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			return core.NewWithArena(env.arena(), cnaOptions(core.DefaultOptions(), opts))
		},
	})
	Register(Spec{
		Name:        NameCNAOpt,
		Aliases:     []string{"cna (opt)", "cnaopt"},
		Description: "CNA with the Section 6 shuffle-reduction optimisation",
		NUMAAware:   true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			return core.NewWithArena(env.arena(), cnaOptions(core.OptimizedOptions(), opts))
		},
	})

	// Spin-then-park variants. Only queue locks whose release names a
	// specific successor can park their waiters (someone must post the
	// wake); the ticket-family locks have no such waker and would merely
	// rename themselves, so they get no *-park spec — WithWait on them
	// degrades to yield-per-recheck (see locks.Ticket).
	registerParkVariants(
		NameMCS, NameCLH, NameMCSCR, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt,
	)

	// Stdlib baselines, last so the paper's algorithms keep their
	// registration-order positions in sweeps. Wait is "runtime": the Go
	// scheduler owns their waiting (they spin briefly, then park on the
	// runtime's semaphores — the policy spectrum the waiter package
	// models is built in). Their Native builders return sync primitives
	// directly, so the goroutine-native path pays no adapter at all —
	// the honest baseline for adapter-overhead measurements.
	Register(Spec{
		Name:        NameStd,
		Aliases:     []string{"sync-mutex", "stdlib"},
		Description: "sync.Mutex: the Go runtime's own mutex, the drop-in baseline",
		Wait:        "runtime",
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewStd()
		},
		Native: func(env Env, opts ...Option) locks.NativeMutex {
			return locks.NewStdNative()
		},
	})
	Register(Spec{
		Name:        NameStdRW,
		Aliases:     []string{"sync-rwmutex", "stdlib-rw"},
		Description: "sync.RWMutex: write-locked as a mutex, the runtime RW baseline",
		Wait:        "runtime",
		RW:          true,
		Build: func(env Env, opts ...Option) locks.Mutex {
			return locks.NewStdRW()
		},
		Native: func(env Env, opts ...Option) locks.NativeMutex {
			return locks.NewStdRWNative()
		},
	})

	// Reader-writer variants: the cohort-RW construction over each base
	// that makes a sensible writer gate — the queue and NUMA-aware
	// locks whose writer-vs-writer arbitration is the point of the
	// comparison. Registered last so base sweeps keep their positions.
	registerRWVariants(
		NameMCS, NameCLH, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt,
	)

	// Fissile variants: the one-CAS fast path over every queue lock —
	// the same set that gets *-park specs, since both constructions
	// need a real queue underneath (a fissile TAS-over-TAS would just
	// be a slower TAS). Registered after the RW family for the same
	// position-stability reason.
	registerFissileVariants(
		NameMCS, NameCLH, NameMCSCR, NameCBOMCS, NameHMCS, NameCNA, NameCNAOpt,
	)

	// Concurrency-restriction variants: the GCR admission gate over the
	// stdlib baseline, the global-spinning ticket lock (the two that
	// collapse hardest under oversubscription) and the queue/NUMA locks
	// the paper sweeps. Registered last for position stability.
	registerCRVariants(
		NameStd, NameTicket, NameMCS, NameCNA, NameCNAOpt, NameCBOMCS, NameHMCS,
	)
}

// registerParkVariants derives a "<base>-park" Spec for each named base
// algorithm: the identical construction with waiter.SpinThenPark{}
// injected as the default waiting policy (an explicit WithWait still
// wins, since user options are applied after the injected one). The
// derived spec inherits the base's aliases with the suffix appended, so
// "malthusian-park" resolves like "malthusian" does.
func registerParkVariants(bases ...string) {
	for _, base := range bases {
		spec, ok := Lookup(base)
		if !ok {
			panic(fmt.Sprintf("lockreg: park variant of unregistered %q", base))
		}
		baseBuild := spec.Build
		park := Spec{
			Name:        spec.Name + locknames.ParkSuffix,
			Description: spec.Description + "; waiters spin briefly then park",
			NUMAAware:   spec.NUMAAware,
			Wait:        waiter.SpinThenPark{}.Name(),
			Build: func(env Env, opts ...Option) locks.Mutex {
				return baseBuild(env, append([]Option{WithWait(waiter.SpinThenPark{})}, opts...)...)
			},
		}
		for _, a := range spec.Aliases {
			park.Aliases = append(park.Aliases, a+locknames.ParkSuffix)
		}
		Register(park)
	}
}

// registerFissileVariants derives a "<base>-fissile" Spec for each
// named base algorithm: the internal/locks/fissile composite with the
// base lock as its contended fallback. The base's options pass straight
// through to the queue (a CNA-fissile honours WithThreshold exactly
// like CNA), WithPatience tunes the composite's anti-starvation bound,
// and the registry's uniform WithWait / WithStats handling reaches both
// layers through the composite's SetWait/EnableStats forwarding. Like
// the park variants, the derived spec inherits the base's aliases with
// the suffix appended.
func registerFissileVariants(bases ...string) {
	for _, base := range bases {
		spec, ok := Lookup(base)
		if !ok {
			panic(fmt.Sprintf("lockreg: fissile variant of unregistered %q", base))
		}
		baseBuild := spec.Build
		fs := Spec{
			Name:        spec.Name + locknames.FissileSuffix,
			Description: "Fissile composite: one-CAS TAS fast path, " + spec.Name + " queue under contention",
			NUMAAware:   spec.NUMAAware,
			Wait:        spec.Wait,
			Build: func(env Env, opts ...Option) locks.Mutex {
				var fopts []fissile.Option
				if c := apply(opts); c.patienceSet {
					fopts = append(fopts, fissile.WithPatience(c.patience))
				}
				return fissile.New(baseBuild(env, opts...), fopts...)
			},
		}
		for _, a := range spec.Aliases {
			fs.Aliases = append(fs.Aliases, a+locknames.FissileSuffix)
		}
		Register(fs)
	}
}

// registerCRVariants derives a "<base>-cr" Spec for each named base
// algorithm: the internal/locks/gcr generic concurrency-restriction
// composite with the base lock behind its admission gate. The base's
// options pass straight through to the inner lock (a CNA-cr honours
// WithThreshold exactly like CNA), WithActiveSet / WithRotateEvery
// tune the gate, and the registry's uniform WithWait / WithStats
// handling reaches both layers through the composite's SetWait /
// EnableStats forwarding (SetWait also selects the passive waiters'
// parking policy). The composite defaults its passive side to
// spin-then-park — culled waiters are expected to park, that is the
// point — so the Spec's Wait field reports spin-park. Like the park
// variants, the derived spec inherits the base's aliases with the
// suffix appended.
func registerCRVariants(bases ...string) {
	for _, base := range bases {
		spec, ok := Lookup(base)
		if !ok {
			panic(fmt.Sprintf("lockreg: CR variant of unregistered %q", base))
		}
		baseBuild := spec.Build
		cr := Spec{
			Name:        spec.Name + locknames.CRSuffix,
			Description: "GCR admission gate over " + spec.Name + ": bounded active set, surplus waiters parked and rotated",
			NUMAAware:   spec.NUMAAware,
			Wait:        waiter.SpinThenPark{}.Name(),
			Build: func(env Env, opts ...Option) locks.Mutex {
				var gopts []gcr.Option
				c := apply(opts)
				if c.activeSetSet {
					gopts = append(gopts, gcr.WithActiveSet(c.activeSet))
				}
				if c.rotateEverySet {
					gopts = append(gopts, gcr.WithRotateEvery(c.rotateEvery))
				}
				return gcr.New(baseBuild(env, opts...), env.Sockets(), gopts...)
			},
		}
		for _, a := range spec.Aliases {
			cr.Aliases = append(cr.Aliases, a+locknames.CRSuffix)
		}
		Register(cr)
	}
}

// registerRWVariants derives a "<base>-rw" Spec for each named base
// algorithm: the internal/locks/rw cohort-RW construction with the
// base lock as its writer gate and one read-indicator stripe per
// socket. The base's options pass straight through to the gate (a
// CNA-rw honours WithThreshold exactly like CNA), WithReaderNeutral
// selects the RW admission mode, and the registry's uniform WithWait /
// WithStats handling reaches both layers through the RW lock's
// SetWait/EnableStats forwarding. Like the park variants, the derived
// spec inherits the base's aliases with the suffix appended.
func registerRWVariants(bases ...string) {
	for _, base := range bases {
		spec, ok := Lookup(base)
		if !ok {
			panic(fmt.Sprintf("lockreg: RW variant of unregistered %q", base))
		}
		baseBuild := spec.Build
		rwSpec := Spec{
			Name:        spec.Name + locknames.RWSuffix,
			Description: "NUMA-aware RW lock: per-socket read indicators, " + spec.Name + " writer gate",
			NUMAAware:   true,
			RW:          true,
			Wait:        spec.Wait,
			Build: func(env Env, opts ...Option) locks.Mutex {
				var ropts []rw.Option
				if c := apply(opts); c.rwNeutralSet && c.rwNeutral {
					ropts = append(ropts, rw.Neutral())
				}
				return rw.New(baseBuild(env, opts...), env.Sockets(), env.Threads(), ropts...)
			},
		}
		for _, a := range spec.Aliases {
			rwSpec.Aliases = append(rwSpec.Aliases, a+locknames.RWSuffix)
		}
		Register(rwSpec)
	}
}
