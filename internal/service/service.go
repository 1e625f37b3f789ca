package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datalog"
	"repro/internal/lru"
	"repro/internal/magic"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/stream"
)

// ErrClosed reports an operation on a service whose Close has been
// called; in-flight evaluations are aborted and new work is refused.
var ErrClosed = errors.New("service: closed")

// Config sizes the service.
type Config struct {
	// Universe is the size of the EDB universe {0..Universe-1}.
	Universe int
	// History is the number of EDB snapshots kept queryable (default 64).
	History int
	// Workers bounds concurrent from-scratch evaluations for historical
	// and ad-hoc queries (default GOMAXPROCS).
	Workers int
	// Parallelism is passed to the evaluator (datalog.Options.Parallelism)
	// for both incremental maintenance and from-scratch queries.
	Parallelism int
	// QueryTimeout bounds each query's queueing plus evaluation time when
	// > 0; queries exceeding it fail with context.DeadlineExceeded.
	QueryTimeout time.Duration
	// SubscribeBuffer is the default per-subscriber event buffer for
	// /v1/subscribe (default 64; requests may ask for more, capped at
	// 4096). A subscriber whose buffer overflows is dropped with a gap
	// event rather than stalling commits.
	SubscribeBuffer int
	// SubscribeHistory is how many recent commits' view deltas the
	// subscription hub retains for resume-from-version (default: History).
	SubscribeHistory int

	// DataDir enables durable storage: commits, registrations and
	// unregistrations are appended to a checksummed WAL under this
	// directory, snapshot checkpoints bound replay, and New recovers the
	// store to the last durable commit on startup. Empty means
	// memory-only (the pre-storage behavior).
	DataDir string
	// Fsync selects the WAL sync policy when DataDir is set: "always"
	// (default — an acknowledged commit is durable), "interval"
	// (group commit: batches fsynced at most every FsyncInterval), or
	// "none" (the OS decides; fsync only on rotation/checkpoint/close).
	Fsync string
	// FsyncInterval is the group-commit window for Fsync "interval"
	// (default 2ms).
	FsyncInterval time.Duration
	// CheckpointEvery writes a snapshot checkpoint (and truncates covered
	// WAL segments) every this many commits (default 256; negative
	// disables checkpointing).
	CheckpointEvery int
	// SegmentBytes rolls WAL segments at this size (default 8 MiB).
	SegmentBytes int64
}

// Service is a concurrent Datalog(≠) service: a versioned EDB store plus
// registered programs whose fixpoints are maintained incrementally on
// every commit and served to many clients. Writers (register, commit,
// unregister) serialize on mu and end by publishing an immutable state —
// version, snapshot, every program's sorted views — with one pointer store
// (see publish.go); readers load that pointer and take no service lock.
// Historical and ad-hoc queries evaluate immutable snapshots on a bounded
// worker pool under the caller's context — a cancelled request or a closed
// service aborts the evaluation within one fixpoint round.
type Service struct {
	cfg      Config
	opts     datalog.Options
	store    *Store
	rewrites *lru.Cache[rewriteKey, *magic.Rewrite]
	exec     *executor
	// planner is the shared cost-based join planner; evaluations bind it
	// to their snapshot's statistics catalog via optsFor.
	planner *plan.Planner

	// log is the durable write-ahead log (nil without Config.DataDir).
	// Appends happen under mu, after the in-memory store forks the version
	// and before anything is published; recovery replays it in New.
	log       *storage.Log
	recovered RecoveryInfo
	sinceCkpt int // commits since the last checkpoint, guarded by mu

	// root ends when Close is called; every evaluation context is tied to
	// it so shutdown aborts in-flight work.
	root      context.Context
	stop      context.CancelFunc
	closeOnce sync.Once
	closeErr  error

	reg *obs.Registry
	met serviceMetrics

	mu    sync.Mutex // serializes writers; guards progs and every registration
	progs map[string]*registration
	// pub is what readers see; stored only under mu, loaded without it.
	pub atomic.Pointer[published]

	// subs fans each commit's maintenance deltas out to live
	// subscriptions (see subscribe.go).
	subs *subHub

	// commits counts applied commits, replayed ones included (met.commits
	// counts only those this process served).
	commits atomic.Int64
}

// serviceMetrics is the service's obs instrumentation; see initMetrics
// for the meaning of each series.
type serviceMetrics struct {
	queries          *obs.Counter
	queryErrors      *obs.Counter
	commits          *obs.Counter
	commitErrors     *obs.Counter
	scratchEvals     *obs.Counter
	evalRounds       *obs.Counter
	programsDropped  *obs.Counter
	goalQueries      *obs.Counter
	rewriteHits      *obs.Counter
	rewriteMisses    *obs.Counter
	checkpointErrors *obs.Counter
	streamQueries    *obs.Counter
	streamRows       *obs.Counter
	viewReads        *obs.Counter
	dredOverDeleted  *obs.Counter
	dredRederived    *obs.Counter
	streamsActive    *obs.Gauge
	streamPeakBuf    *obs.Gauge
	querySeconds     *obs.Histogram
	commitSeconds    *obs.Histogram
	maintainSeconds  *obs.Histogram
	viewPublishSecs  *obs.Histogram
	demandFacts      *obs.Histogram
	planEstError     *obs.Histogram
}

// planEstErrorBuckets bucket |log₂(estimated/actual)| rows: 0 means the
// cost model nailed it, 3 means it was 8x off in either direction.
var planEstErrorBuckets = []float64{0.5, 1, 2, 3, 4, 6, 8, 12}

// view is the maintenance surface of a registration's materialized
// fixpoint. Production has one implementation, *datalog.Incremental; the
// interface is the seam through which a test substitutes a view whose
// maintenance fails (TestMaintenanceFailureDropsOnlyThatProgram).
type view interface {
	Check(facts ...datalog.Fact) error
	InsertContext(ctx context.Context, facts ...datalog.Fact) error
	DeleteContext(ctx context.Context, facts ...datalog.Fact) error
	LastDelta() datalog.Delta
	Result() *datalog.Result
	Relations() map[string]*datalog.Relation
	Totals() (derivations int, overDeleted, rederived int64)
	RuleStats() []datalog.RuleStats
	Rounds() int
	Updates() int
}

// registration is one registered program and its maintained view: the
// writer's side, touched only under mu. Readers see pub.
type registration struct {
	name    string
	hash    string
	source  string
	prog    *datalog.Program
	inc     view
	version int64 // EDB version the materialization reflects

	maintainTotal time.Duration
	maintainLast  time.Duration

	// pub is the registration as of version: what publishLocked installs.
	pub *publishedProg
}

// New returns a service over Config.Universe elements. With
// Config.DataDir set it opens the durable log and rebuilds the store to
// the last durable commit: the newest valid checkpoint is loaded, WAL
// records after it are replayed through the ordinary commit/registration
// paths (so incremental views are re-derived by the same maintenance code
// that built them), and the log is left appendable. Callers that want
// shutdown to abort in-flight evaluations — and, with storage, the final
// WAL flush — must call Close.
func New(cfg Config) (*Service, error) {
	if cfg.Universe <= 0 {
		return nil, fmt.Errorf("service: universe size must be positive, got %d", cfg.Universe)
	}
	if cfg.History == 0 {
		cfg.History = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.SubscribeBuffer == 0 {
		cfg.SubscribeBuffer = 64
	}
	if cfg.SubscribeHistory == 0 {
		cfg.SubscribeHistory = cfg.History
	}
	root, stop := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		opts:     datalog.DefaultOptions.WithParallelism(cfg.Parallelism),
		store:    NewStore(cfg.Universe, cfg.History),
		rewrites: lru.New[rewriteKey, *magic.Rewrite](rewriteEntries),
		exec:     newExecutor(cfg.Workers),
		planner:  plan.New(plan.Config{}),
		root:     root,
		stop:     stop,
		progs:    map[string]*registration{},
		subs:     newSubHub(cfg.SubscribeHistory, 0),
	}
	if cfg.DataDir != "" {
		if err := s.openStorage(); err != nil {
			stop()
			return nil, err
		}
		// Recovery from a checkpoint with an empty WAL tail publishes
		// nothing, so catch the hub's version anchor up to the store.
		if s.subs.version < s.store.Version() {
			s.subs.version = s.store.Version()
		}
	}
	s.initMetrics()
	// Recovery published as it replayed registrations and commits; a fresh
	// or checkpoint-only start has published nothing yet, and a replayed
	// unregistration only edited progs.
	s.publishLocked(s.store.Latest())
	return s, nil
}

// RecoveryInfo describes what startup recovery rebuilt from DataDir.
type RecoveryInfo struct {
	// Enabled is true when the service runs with durable storage.
	Enabled bool
	// Version is the EDB version recovered to (0 for a fresh directory).
	Version int64
	// CheckpointVersion is the version of the checkpoint replay started
	// from (0 if none).
	CheckpointVersion int64
	// ReplayedCommits and ReplayedRegistrations count WAL records applied
	// on top of the checkpoint; Programs is the registration count after
	// recovery.
	ReplayedCommits       int
	ReplayedRegistrations int
	Programs              int
	// TornTail, CorruptRecords, DroppedBytes and BadCheckpoints surface
	// damage the recovery scan found and discarded (see storage.Recovery).
	TornTail       bool
	CorruptRecords int
	DroppedBytes   int64
	BadCheckpoints int
}

// Recovery returns what startup recovery found; zero-valued without
// DataDir.
func (s *Service) Recovery() RecoveryInfo { return s.recovered }

// openStorage opens the WAL directory and rebuilds the service's durable
// state. Called from New before the service is shared, so no locking.
func (s *Service) openStorage() error {
	policy, err := storage.ParseSyncPolicy(s.cfg.Fsync)
	if err != nil {
		return err
	}
	log, rec, err := storage.Open(s.cfg.DataDir, storage.Options{
		Sync:         policy,
		SyncInterval: s.cfg.FsyncInterval,
		SegmentBytes: s.cfg.SegmentBytes,
	})
	if err != nil {
		return err
	}
	s.log = log
	s.recovered = RecoveryInfo{
		Enabled:        true,
		TornTail:       rec.TornTail,
		CorruptRecords: rec.CorruptRecords,
		DroppedBytes:   rec.DroppedBytes,
		BadCheckpoints: rec.BadCheckpoints,
	}
	if ck := rec.Checkpoint; ck != nil {
		if ck.Universe != s.cfg.Universe {
			log.Close()
			return fmt.Errorf("service: data dir %s was created with universe %d, configured %d",
				s.cfg.DataDir, ck.Universe, s.cfg.Universe)
		}
		s.store = NewStoreAt(ck.DB, ck.Version, s.cfg.History)
		s.recovered.CheckpointVersion = ck.Version
		for _, p := range ck.Programs {
			if err := s.recoverRegistration(p.Name, p.Source); err != nil {
				log.Close()
				return fmt.Errorf("service: recovering program %s from checkpoint: %w", p.Name, err)
			}
		}
	}
	for _, r := range rec.Records {
		if err := s.replayRecord(r); err != nil {
			log.Close()
			return err
		}
	}
	s.recovered.Version = s.store.Version()
	s.recovered.Programs = len(s.progs)
	return nil
}

// replayRecord applies one recovered WAL record through the same code
// paths a live request would take, minus the WAL append: commits run the
// store's Fork and Install plus incremental maintenance of every
// registration live at that point in the log, so recovered views are re-derived by the
// maintenance engine, not deserialized.
func (s *Service) replayRecord(r *storage.Record) error {
	switch r.Type {
	case storage.RecCommit:
		info, err := s.commitLocked(r.Insert, r.Delete, false)
		if err != nil {
			return fmt.Errorf("service: replaying commit lsn %d: %w", r.LSN, err)
		}
		if info.Version != r.Version {
			return fmt.Errorf("service: replay desync at lsn %d: store version %d, record version %d",
				r.LSN, info.Version, r.Version)
		}
		s.recovered.ReplayedCommits++
	case storage.RecRegister:
		if err := s.recoverRegistration(r.Name, r.Source); err != nil {
			return fmt.Errorf("service: replaying registration of %s (lsn %d): %w", r.Name, r.LSN, err)
		}
		s.recovered.ReplayedRegistrations++
	case storage.RecUnregister:
		delete(s.progs, r.Name)
		s.recovered.ReplayedRegistrations++
	default:
		return fmt.Errorf("service: unknown WAL record type %d at lsn %d", r.Type, r.LSN)
	}
	return nil
}

// recoverRegistration re-registers a program from the checkpoint or the
// WAL. A program with a constant outside the universe was logged before
// registration refused such programs; it is dropped with a warning, as if
// it had been refused, and recovery goes on — the name keeps whatever it
// held before, and the next checkpoint leaves the program out. Any other
// failure fails recovery.
func (s *Service) recoverRegistration(name, source string) error {
	_, err := s.registerLocked(s.root, name, source, false)
	if errors.Is(err, errOutsideUniverse) {
		slog.Warn("recovery dropped a logged registration", slog.String("program", name), slog.Any("error", err))
		return nil
	}
	return err
}

// initMetrics registers the service's series on a fresh obs registry.
func (s *Service) initMetrics() {
	r := obs.NewRegistry()
	s.reg = r
	s.met = serviceMetrics{
		queries:         r.Counter("datalog_queries_total", "queries answered (any origin)"),
		queryErrors:     r.Counter("datalog_query_errors_total", "queries that returned an error"),
		commits:         r.Counter("datalog_commits_total", "EDB commits applied"),
		commitErrors:    r.Counter("datalog_commit_errors_total", "commits rejected or aborted"),
		scratchEvals:    r.Counter("datalog_scratch_evals_total", "from-scratch fixpoint evaluations"),
		evalRounds:      r.Counter("datalog_eval_rounds_total", "fixpoint rounds executed by evaluations and maintenance"),
		programsDropped: r.Counter("datalog_programs_dropped_total", "registrations dropped after an aborted maintenance run"),
		goalQueries:     r.Counter("datalog_goal_queries_total", "bound queries answered through the magic-set pipeline"),
		rewriteHits:     r.Counter("datalog_rewrite_cache_hits_total", "magic rewrite cache hits"),
		rewriteMisses:   r.Counter("datalog_rewrite_cache_misses_total", "magic rewrite cache misses"),
		streamQueries:   r.Counter("datalog_stream_queries_total", "queries served through the streaming executor (QueryStream / NDJSON)"),
		streamRows:      r.Counter("datalog_stream_rows_total", "tuples delivered by streaming queries"),
		viewReads:       r.Counter("datalog_view_reads_total", "unbound reads of a registered program served from its published sorted view"),
		dredOverDeleted: r.Counter("datalog_dred_overdeleted_total", "view tuples delete maintenance over-deleted: their recorded witness lost a fact"),
		dredRederived:   r.Counter("datalog_dred_rederived_total", "over-deleted view tuples rederivation brought back; the rest left their view"),
		streamsActive:   r.Gauge("datalog_streams_active", "streaming queries currently open"),
		streamPeakBuf:   r.Gauge("datalog_stream_peak_buffered_rows", "high-water mark of rows buffered by any single streaming query"),
		querySeconds:    r.Histogram("datalog_query_seconds", "end-to-end query latency", nil),
		commitSeconds:   r.Histogram("datalog_commit_seconds", "commit latency including all maintenance", nil),
		maintainSeconds: r.Histogram("datalog_maintain_seconds", "per-program incremental maintenance latency", nil),
		viewPublishSecs: r.Histogram("datalog_view_publish_seconds", "per-program cost of building the next published views: one merge of each changed view with the commit's delta", nil),
		demandFacts:     r.Histogram("datalog_magic_demand_facts", "demand-set size (magic facts) per goal-directed query", nil),
		planEstError:    r.Histogram("datalog_plan_estimation_error", "per-rule |log2(estimated/actual)| derived rows", planEstErrorBuckets),
	}
	r.GaugeFunc("datalog_store_version", "latest EDB version in the store", func() float64 {
		return float64(s.store.Version())
	})
	r.GaugeFunc("datalog_published_version", "version readers are served as latest", func() float64 {
		return float64(s.pub.Load().version)
	})
	r.GaugeFunc("datalog_store_oldest_version", "oldest retained EDB version", func() float64 {
		return float64(s.store.Oldest())
	})
	r.GaugeFunc("datalog_store_snapshots", "retained EDB snapshots", func() float64 {
		return float64(len(s.store.Snapshots()))
	})
	r.GaugeFunc("datalog_programs_registered", "registered programs with maintained views", func() float64 {
		return float64(len(s.pub.Load().progs))
	})
	r.GaugeFunc("datalog_executor_in_flight", "from-scratch evaluations running now", func() float64 {
		return float64(s.exec.inFlight.Load())
	})
	r.GaugeFunc("datalog_subscribers_active", "open /v1/subscribe streams", func() float64 {
		return float64(s.subs.active())
	})
	r.GaugeFunc("datalog_subscribe_peak_queue", "high-water mark of any subscriber's event queue", func() float64 {
		return float64(s.subs.peakQueue.Load())
	})
	r.CounterFunc("datalog_subscribe_events_total", "subscription events delivered (hello, delta, replay)", func() int64 {
		return s.subs.events.Load()
	})
	r.CounterFunc("datalog_subscribe_replayed_total", "delta events replayed from the resume history", func() int64 {
		return s.subs.replayed.Load()
	})
	r.CounterFunc("datalog_subscribe_dropped_total", "subscribers dropped with a gap event (slow consumer or stale resume)", func() int64 {
		return s.subs.dropped.Load()
	})
	r.CounterFunc("datalog_index_builds_total", "join indexes built on snapshot relations (first probe of a relation on a column mask; later versions inherit the index)", func() int64 {
		return s.store.IndexBuilds()
	})
	r.GaugeFunc("datalog_rewrite_cache_entries", "live magic rewrite cache entries", func() float64 {
		return float64(s.rewrites.Len())
	})
	if s.log != nil {
		s.met.checkpointErrors = r.Counter("datalog_checkpoint_errors_total", "checkpoint writes that failed (retried on a later commit)")
		r.CounterFunc("datalog_wal_records_total", "WAL records appended this process", func() int64 {
			return s.log.Counters().Records
		})
		r.CounterFunc("datalog_wal_bytes_total", "WAL bytes appended (headers + payloads)", func() int64 {
			return s.log.Counters().AppendedBytes
		})
		r.CounterFunc("datalog_wal_fsyncs_total", "fsync calls on the active WAL segment", func() int64 {
			return s.log.Counters().Fsyncs
		})
		r.CounterFunc("datalog_wal_sync_nanos_total", "cumulative nanoseconds inside WAL flush+fsync", func() int64 {
			return s.log.Counters().SyncNanos
		})
		r.CounterFunc("datalog_checkpoints_total", "checkpoint files written", func() int64 {
			return s.log.Counters().Checkpoints
		})
		r.GaugeFunc("datalog_wal_segments", "WAL segments on disk (incl. active)", func() float64 {
			return float64(s.log.Counters().Segments)
		})
		r.GaugeFunc("datalog_recovered_version", "EDB version startup recovery rebuilt to", func() float64 {
			return float64(s.recovered.Version)
		})
	}
	r.CounterFunc("datalog_plans_built_total", "join plans constructed", func() int64 {
		return s.planner.Counters().Built
	})
	r.CounterFunc("datalog_plan_cache_hits_total", "plan cache hits", func() int64 {
		return s.planner.Counters().CacheHits
	})
	r.CounterFunc("datalog_plan_cache_misses_total", "plan cache misses", func() int64 {
		return s.planner.Counters().CacheMisses
	})
	r.CounterFunc("datalog_plan_rules_pruned_total", "subsumed rules dropped by the containment pre-pass", func() int64 {
		return s.planner.Counters().RulesPruned
	})
	r.CounterFunc("datalog_plan_atoms_pruned_total", "redundant body atoms removed by CQ minimization", func() int64 {
		return s.planner.Counters().AtomsPruned
	})
	r.GaugeFunc("datalog_plan_cache_entries", "live plan cache entries", func() float64 {
		return float64(s.planner.Counters().Entries)
	})
}

// Metrics returns the service's metrics registry (served at /v1/metrics).
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Close aborts in-flight evaluations, makes every later operation fail
// with ErrClosed and — with durable storage — flushes and closes the WAL,
// returning its error. It is idempotent: later calls return the first
// result.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.stop()
		s.subs.closeAll()
		if s.log != nil {
			// Taking mu orders the close after any in-flight commit's append,
			// so the final flush covers everything that was acknowledged.
			s.mu.Lock()
			s.closeErr = s.log.Close()
			s.mu.Unlock()
		}
	})
	return s.closeErr
}

// scoped derives the evaluation context for one request: it ends when
// the caller's context ends, when the service closes, or — if timeout is
// positive — when the timeout elapses. Queries pass cfg.QueryTimeout;
// registration passes 0 (its initial evaluation is setup, not a query).
func (s *Service) scoped(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	unhook := context.AfterFunc(s.root, cancel)
	return ctx, func() { unhook(); cancel() }
}

// Store returns the underlying versioned EDB store.
func (s *Service) Store() *Store { return s.store }

// ProgramHash returns the canonical hash of a program: SHA-256 of its
// printed form, so textual variants that parse to the same rules share
// rewrite-cache entries.
func ProgramHash(p *datalog.Program) string {
	sum := sha256.Sum256([]byte(p.String()))
	return hex.EncodeToString(sum[:])
}

// optsFor returns the evaluation options for one snapshot: the base
// options with the cost-based planner bound to that snapshot's statistics
// catalog. Binding per snapshot (rather than sharing one catalog) keeps
// historical queries planned against the statistics of their own version.
func (s *Service) optsFor(snap *Snapshot) datalog.Options {
	return s.opts.WithPlanner(s.planner.With(snap.Stats))
}

// observeEstimation scores the cost model against reality: it re-fetches
// the plan the evaluation used (a warm plan-cache hit) and records each
// rule's |log2(estimated/actual)| derived-row error in the
// datalog_plan_estimation_error histogram.
func (s *Service) observeEstimation(prog *datalog.Program, snap *Snapshot, st *datalog.EvalStats) {
	if st == nil {
		return
	}
	pp, _ := s.planner.PlanProgram(prog, snap.Stats)
	for _, re := range plan.EstimationErrors(pp, st) {
		s.met.planEstError.Observe(re.AbsLog2)
	}
}

// RegisterInfo describes a registration.
type RegisterInfo struct {
	Name     string
	Hash     string
	Version  int64
	IDBSizes map[string]int
}

// Register is RegisterContext with a background context.
func (s *Service) Register(name, source string) (RegisterInfo, error) {
	return s.RegisterContext(context.Background(), name, source)
}

// RegisterContext parses the program source, evaluates it against the
// current snapshot under ctx, and keeps its fixpoint maintained under the
// given name. Re-registering a name replaces the previous program. A
// context abort during the initial evaluation registers nothing. With
// durable storage the registration is appended to the WAL only after its
// initial evaluation succeeds — a program that cannot evaluate is never
// made durable — and a WAL failure rolls the registration back. Readers
// see the program, with its views sorted once here, from the publish that
// ends a successful registration.
func (s *Service) RegisterContext(ctx context.Context, name, source string) (RegisterInfo, error) {
	if err := s.root.Err(); err != nil {
		return RegisterInfo{}, ErrClosed
	}
	ctx, done := s.scoped(ctx, 0)
	defer done()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(ctx, name, source, true)
}

// registerLocked evaluates and installs one registration; the caller
// holds mu. persist=false is the recovery path: the registration comes
// from the checkpoint or the WAL, so nothing is appended and no request
// metrics are recorded (replay rebuilds state, it does not serve traffic).
func (s *Service) registerLocked(ctx context.Context, name, source string, persist bool) (RegisterInfo, error) {
	if name == "" {
		return RegisterInfo{}, fmt.Errorf("service: registration needs a name")
	}
	prog, err := datalog.Parse(source)
	if err != nil {
		return RegisterInfo{}, err
	}
	if err := s.checkConstants(prog); err != nil {
		return RegisterInfo{}, err
	}
	snap := s.store.Latest()
	start := time.Now()
	inc, err := datalog.NewIncrementalContext(ctx, prog, snap.DB, s.optsFor(snap))
	if err != nil {
		return RegisterInfo{}, err
	}
	if persist {
		s.met.evalRounds.Add(int64(inc.Rounds()))
		s.observeEstimation(prog, snap, inc.Result().Stats)
	}
	reg := &registration{
		name:         name,
		hash:         ProgramHash(prog),
		source:       source,
		prog:         prog,
		inc:          inc,
		version:      snap.Version,
		maintainLast: time.Since(start),
	}
	reg.maintainTotal = reg.maintainLast
	reg.pub = reg.snapshot(nil, datalog.Delta{})
	prev, hadPrev := s.progs[name]
	s.progs[name] = reg
	if persist && s.log != nil {
		if _, err := s.log.AppendRegister(name, source); err != nil {
			// Roll back: an unlogged registration would silently vanish on
			// restart, which is worse than failing the request.
			if hadPrev {
				s.progs[name] = prev
			} else {
				delete(s.progs, name)
			}
			return RegisterInfo{}, fmt.Errorf("service: persisting registration %s: %w", name, err)
		}
	}
	s.publishLocked(snap)
	return RegisterInfo{Name: reg.name, Hash: reg.hash, Version: reg.version, IDBSizes: reg.pub.stats.IDBSizes}, nil
}

// Unregister drops a registered program, reporting whether it existed.
// With durable storage the drop is logged so the program stays gone after
// a restart; the in-memory drop stands even if the append fails (the error
// reports the durability gap).
func (s *Service) Unregister(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.progs[name]
	if !ok {
		return false, nil
	}
	delete(s.progs, name)
	s.publishLocked(s.pub.Load().snap)
	if s.log != nil {
		if _, err := s.log.AppendUnregister(name); err != nil {
			return true, fmt.Errorf("service: persisting unregistration of %s: %w", name, err)
		}
	}
	return true, nil
}

// CommitInfo describes an applied commit.
type CommitInfo struct {
	Version  int64
	Inserted int
	Deleted  int
	// Maintained maps each registered program to the time spent updating
	// its materialized fixpoint for this commit.
	Maintained map[string]time.Duration
	// Dropped names, sorted, the registrations whose maintenance failed on
	// this commit and were therefore unregistered; the commit itself stands.
	Dropped []string
}

// Commit atomically applies deletions then insertions to the EDB store and
// incrementally maintains every registered program's fixpoint. The batch
// is validated against the store and against every registered program
// before anything mutates; on error no version is created and no view
// changes. In order: validate, fork the next EDB version, append it to the
// WAL (with durable storage), maintain each program and patch its sorted
// views with the commit's net delta, publish {version, views} to readers
// with one pointer store, then hand the delta frame to the subscription
// hub — so a subscriber told of version N can read version N. Under Fsync
// "always" an acknowledged commit is on disk; a WAL failure fails the
// commit before anything is published — readers stay on the previous
// version — and poisons the log, so no later commit can be acknowledged
// past the gap. Maintenance runs under the service's lifetime context only
// (never a request context): a commit must finish its maintenance or the
// affected view is unusable, so only Close aborts it. A registration whose
// maintenance fails is dropped (CommitInfo.Dropped,
// datalog_programs_dropped_total) while the other programs are maintained
// and published and the commit stands: it is already durable, and a view
// that missed a batch would silently diverge from the next one on.
func (s *Service) Commit(insert, del []datalog.Fact) (CommitInfo, error) {
	s.mu.Lock()
	info, err := s.commitLocked(insert, del, true)
	s.mu.Unlock()
	if err != nil {
		s.met.commitErrors.Inc()
	}
	return info, err
}

// commitLocked applies one commit; the caller holds mu. persist=false is
// WAL replay: the record is already durable, so nothing is appended, no
// checkpoint is triggered, and no request metrics are recorded.
func (s *Service) commitLocked(insert, del []datalog.Fact, persist bool) (CommitInfo, error) {
	start := time.Now()
	if err := s.root.Err(); err != nil {
		return CommitInfo{}, ErrClosed
	}
	for _, reg := range s.progs {
		if err := reg.inc.Check(insert...); err != nil {
			return CommitInfo{}, fmt.Errorf("program %s: %w", reg.name, err)
		}
		if err := reg.inc.Check(del...); err != nil {
			return CommitInfo{}, fmt.Errorf("program %s: %w", reg.name, err)
		}
	}
	snap, err := s.store.Fork(insert, del)
	if err != nil {
		return CommitInfo{}, err
	}
	if persist && s.log != nil {
		if _, err := s.log.AppendCommit(snap.Version, insert, del); err != nil {
			// The fork is dropped uninstalled: the store, the views and the
			// published state all stay at the previous version. The log's
			// sticky error refuses every later append, so no subsequent commit
			// can be acknowledged either — the durable prefix stays a prefix,
			// and a restart recovers to the last logged version.
			return CommitInfo{}, fmt.Errorf("service: persisting commit %d: %w", snap.Version, err)
		}
	}
	s.store.Install(snap)
	info := CommitInfo{Version: snap.Version, Inserted: snap.Inserted, Deleted: snap.Deleted,
		Maintained: map[string]time.Duration{}}
	deltas := map[string]datalog.Delta{}
	for _, reg := range s.progs {
		mstart := time.Now()
		roundsBefore := reg.inc.Rounds()
		delta, err := maintain(s.root, reg.inc, insert, del)
		if err != nil {
			// Drop only this registration and keep going: the programs after
			// it still need the batch, and the frame still needs publishing.
			delete(s.progs, reg.name)
			info.Dropped = append(info.Dropped, reg.name)
			slog.Warn("maintenance failed; registration dropped",
				slog.String("program", reg.name), slog.Int64("version", snap.Version), slog.Any("error", err))
			if persist {
				s.met.programsDropped.Inc()
			}
			continue
		}
		deltas[reg.name] = delta
		reg.version = snap.Version
		reg.maintainLast = time.Since(mstart)
		reg.maintainTotal += reg.maintainLast
		info.Maintained[reg.name] = reg.maintainLast
		pstart := time.Now()
		prev := reg.pub
		reg.pub = reg.snapshot(prev, delta)
		if persist {
			s.met.evalRounds.Add(int64(reg.inc.Rounds() - roundsBefore))
			s.met.dredOverDeleted.Add(reg.pub.stats.OverDeleted - prev.stats.OverDeleted)
			s.met.dredRederived.Add(reg.pub.stats.Rederived - prev.stats.Rederived)
			s.met.maintainSeconds.Observe(reg.maintainLast.Seconds())
			s.met.viewPublishSecs.Observe(time.Since(pstart).Seconds())
		}
	}
	sort.Strings(info.Dropped)
	s.publishLocked(snap)
	// Hand the hub every commit — replay included, which rebuilds the
	// resume history after a restart — even when no view changed: retaining
	// empty commits keeps the history's version range contiguous, which
	// is what makes resume gap detection sound.
	s.publishCommit(snap.Version, deltas)
	s.commits.Add(1)
	s.sinceCkpt++
	if persist {
		s.met.commits.Inc()
		s.met.commitSeconds.Observe(time.Since(start).Seconds())
		s.maybeCheckpointLocked()
	}
	return info, nil
}

// maintain runs one commit's batch through a view — the delete pass, then
// the insert pass — and returns the commit's net view change: the two
// passes' deltas composed (a tuple removed then re-derived cancels out).
func maintain(ctx context.Context, v view, insert, del []datalog.Fact) (datalog.Delta, error) {
	if err := v.DeleteContext(ctx, del...); err != nil {
		return datalog.Delta{}, err
	}
	delDelta := v.LastDelta()
	if err := v.InsertContext(ctx, insert...); err != nil {
		return datalog.Delta{}, err
	}
	return datalog.MergeDeltas(delDelta, v.LastDelta()), nil
}

// maybeCheckpointLocked writes a snapshot checkpoint once CheckpointEvery
// commits have accumulated since the last one (counting replayed commits,
// so a recovery with a long replay re-checkpoints promptly). A checkpoint
// failure does not fail the commit — the commit is already durable in the
// WAL — but the counter is left alone so the next commit retries.
func (s *Service) maybeCheckpointLocked() {
	if s.log == nil || s.cfg.CheckpointEvery < 0 || s.sinceCkpt < s.cfg.CheckpointEvery {
		return
	}
	snap := s.store.Latest()
	st := &storage.CheckpointState{
		Universe: s.cfg.Universe,
		Version:  snap.Version,
		LSN:      s.log.LastLSN(),
		DB:       snap.DB,
	}
	for _, reg := range s.progs {
		st.Programs = append(st.Programs, storage.Program{Name: reg.name, Source: reg.source})
	}
	if err := s.log.WriteCheckpoint(st); err != nil {
		s.met.checkpointErrors.Inc()
		return
	}
	s.sinceCkpt = 0
}

// QueryRequest asks for one IDB relation of a program at a version. Explain
// takes the same request (and does not read Limit or Cursor), so a plan is
// resolved by the code that resolves the query it explains.
type QueryRequest struct {
	// Program names a registration; Source is inline program text for
	// ad-hoc queries. Exactly one must be set.
	Program string
	Source  string
	// Pred is the IDB predicate to read; empty means the program's goal.
	Pred string
	// Version pins the EDB version; <0 means the latest.
	Version int64
	// Bind, when non-nil, must have one entry per argument of Pred: a
	// non-nil entry binds that position to its value, nil leaves it free.
	// A query with at least one bound position is answered goal-directed
	// through the magic-set pipeline; an all-free (or nil) Bind reads the
	// unrewritten program — its published view, or an evaluation.
	Bind []*int
	// Limit caps the number of tuples returned (0 = all). Non-streaming
	// results are in the canonical datalog.CompareTuples order, so a
	// limited page is a stable prefix; QueryResult.NextCursor resumes the
	// next page.
	Limit int
	// Cursor resumes a paginated read strictly after the tuple a previous
	// page's NextCursor named: comma-joined components, one per argument of
	// Pred. Cursors are defined only over the canonical sorted order, so a
	// request with a cursor is always served from the sorted answer set.
	Cursor string
}

// QueryResult is the answer to one query.
type QueryResult struct {
	Pred    string
	Version int64
	// Arity is Pred's arity: the length of every tuple.
	Arity  int
	Tuples []datalog.Tuple
	// Origin reports how the result was obtained: "materialized" (a
	// registered program's published view at the latest version — every
	// such read, first or repeated), "eval" (from-scratch evaluation of a
	// snapshot) or "magic" (goal-directed evaluation of the magic-set
	// rewrite); every read that is not of the view evaluates. Materialized
	// tuples are headers over the published view's own rows, shared with
	// every other reader: read-only.
	Origin string
	// Goal echoes the binding pattern of a goal-directed query in
	// datalog.Goal.String form (e.g. "S(0,_)"); empty otherwise.
	Goal string
	// DemandFacts is the demand-set size of a goal-directed query: the
	// rows of the rewrite's magic predicates its evaluation derived.
	DemandFacts int
	// NextCursor is set when Limit truncated the (canonically sorted)
	// answer set: passing it back as QueryRequest.Cursor returns the next
	// page. Empty on the final page.
	NextCursor string

	// view is the published view a materialized answer reads, before its
	// page is cut (see QueryResult.page); Tuples is then unset.
	view *datalog.View
}

// Query is QueryContext with a background context.
func (s *Service) Query(req QueryRequest) (QueryResult, error) {
	return s.QueryContext(context.Background(), req)
}

// QueryContext returns the tuples of one IDB predicate at an EDB version:
// the request is resolved once, its answer taken from answer, and the page
// cut out of it. Latest-version queries of registered programs read the
// published view — no lock, no copy of a row; a page is a search of the
// view's chunk directory and of one chunk, and one slice of row headers.
// Anything else — historical versions, ad-hoc programs, bound requests — is
// evaluated from the pinned snapshot on the bounded executor under ctx
// (plus the per-query timeout and the service lifetime): a cancelled client
// stops queueing immediately and aborts a running evaluation within one
// fixpoint round.
func (s *Service) QueryContext(ctx context.Context, req QueryRequest) (QueryResult, error) {
	res, after, err := s.query(ctx, req)
	if err != nil {
		return QueryResult{}, err
	}
	res.Tuples, res.NextCursor = res.page(after, req.Limit)
	return res, nil
}

// query resolves req and takes its whole answer from answer, leaving the
// page to the caller — QueryContext cuts it as tuples, the HTTP front end
// straight into the wire's rows — and returns the tuple the request's
// cursor names (nil without one).
func (s *Service) query(ctx context.Context, req QueryRequest) (QueryResult, datalog.Tuple, error) {
	s.met.queries.Inc()
	start := time.Now()
	var res QueryResult
	q, err := s.resolve(req)
	if err == nil {
		if q.goal != nil {
			s.met.goalQueries.Inc()
		}
		res, err = s.answer(ctx, &q)
	}
	s.met.querySeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		s.met.queryErrors.Inc()
		return QueryResult{}, nil, err
	}
	return res, q.after, nil
}

// page cuts the page strictly after the tuple after (nil: from the start),
// at most limit tuples (0: all), out of the answer, with the cursor that
// resumes after it. Whatever its origin the answer is in the canonical
// sorted order (see datalog.CompareTuples), so the page boundary is stable
// across repeated reads of the same version.
func (res *QueryResult) page(after datalog.Tuple, limit int) ([]datalog.Tuple, string) {
	if res.view != nil {
		return viewPage[datalog.Tuple](res.view, after, limit)
	}
	if limit == 0 && after == nil {
		return res.Tuples, ""
	}
	return pageTuples(res.Tuples, after, limit)
}

// answer is the one source of a request's whole answer in the canonical
// sorted order: the published view (QueryResult.view), else one evaluation
// of the pinned snapshot on the bounded executor — the stream of q's target
// (the source program, or a bound request's seeded magic rewrite) drained
// and sorted once. The evaluation derives into relations of its own and only reads the
// snapshot, so a cancelled or failed one leaves nothing behind — not in the
// snapshot, and not in the registered incremental view, which it never
// touches.
func (s *Service) answer(ctx context.Context, q *resolved) (QueryResult, error) {
	res := QueryResult{Pred: q.pred, Version: q.version, Arity: q.arity, Goal: q.bind}
	if q.readsView() {
		s.met.viewReads.Inc()
		res.view, res.Origin = q.pp.views[q.pred], "materialized"
		return res, nil
	}
	ctx, done := s.scoped(ctx, s.cfg.QueryTimeout)
	defer done()
	// The executor admits the whole evaluation, planning included.
	var st *stream.Stream
	var runErr error
	if err := s.exec.do(ctx, func() {
		if st, runErr = s.open(ctx, q, 0); runErr != nil {
			return
		}
		s.met.scratchEvals.Inc()
		res.Tuples, runErr = stream.Collect(st)
		s.met.evalRounds.Add(st.Counters().Rounds)
	}); err != nil {
		return QueryResult{}, err
	}
	if runErr != nil {
		return QueryResult{}, runErr
	}
	res.Origin = "eval"
	if q.goal != nil {
		res.Origin = "magic"
		for name, kind := range q.rw.Kinds {
			if kind == magic.KindMagic {
				res.DemandFacts += st.Rows(name)
			}
		}
		s.met.demandFacts.Observe(float64(res.DemandFacts))
	}
	return res, nil
}

// ExplainResult is the planner's account of how a query would run (and,
// because the plan is evaluated to gather actuals, how it did run).
type ExplainResult struct {
	Pred    string
	Version int64
	// Goal is the binding pattern for a bound request (e.g. "S(0,_)");
	// empty when every position is free.
	Goal string
	// Strategy and Epoch identify the plan cache key components beyond the
	// program hash.
	Strategy string
	Epoch    uint64
	// CacheHit reports whether the plan came out of the plan cache.
	CacheHit bool
	// Plan is the full per-rule plan: atom order, probe masks, estimates.
	Plan *plan.ProgramPlan
	// Actuals are the per-rule evaluation statistics of the planned
	// program, index-aligned with Plan.Rules.
	Actuals []datalog.RuleStats
	// Stream is the streaming executor's per-step stream/materialize
	// decisions for this query (rule- and step-aligned with Plan.Rules),
	// including the estimated peak buffered-row footprint; the rules of a
	// recursive component report via "fixpoint".
	Stream *stream.Decisions
}

// Explain is ExplainContext with a background context.
func (s *Service) Explain(req QueryRequest) (ExplainResult, error) {
	return s.ExplainContext(context.Background(), req)
}

// ExplainContext plans a query — resolved exactly as QueryContext resolves
// it; Limit and Cursor say nothing about a plan — and evaluates the planned
// program against the pinned snapshot to report estimated versus actual
// rows per rule. Bound requests are explained as the service runs them:
// the plan shown is the plan of the magic-set-rewritten, seeded program.
func (s *Service) ExplainContext(ctx context.Context, req QueryRequest) (ExplainResult, error) {
	q, err := s.resolve(req)
	if err != nil {
		return ExplainResult{}, err
	}
	snap, err := s.snapshotOf(&q)
	if err != nil {
		return ExplainResult{}, err
	}
	prog, pred, err := s.target(&q)
	if err != nil {
		return ExplainResult{}, err
	}
	pp, hit := s.planner.PlanProgram(prog, snap.Stats)
	out := ExplainResult{
		Pred: q.pred, Version: q.version, Goal: q.bind,
		Strategy: s.planner.Strategy(), Epoch: pp.Epoch, CacheHit: hit, Plan: pp,
	}
	if sd, err := stream.Explain(prog, pred, pp); err == nil {
		out.Stream = sd
	}

	// Evaluate the planned program for actual row counts. Runs on the
	// bounded executor like any other from-scratch query.
	ctx, done := s.scoped(ctx, s.cfg.QueryTimeout)
	defer done()
	var evalErr error
	err = s.exec.do(ctx, func() {
		s.met.scratchEvals.Inc()
		res, err := datalog.EvalContext(ctx, pp.Program(), snap.DB, s.opts)
		if res != nil {
			s.met.evalRounds.Add(int64(res.Rounds))
		}
		if err != nil {
			evalErr = err
			return
		}
		out.Actuals = res.Stats.Rules
		for _, re := range plan.EstimationErrors(pp, res.Stats) {
			s.met.planEstError.Observe(re.AbsLog2)
		}
	})
	if err != nil {
		return ExplainResult{}, err
	}
	if evalErr != nil {
		return ExplainResult{}, evalErr
	}
	return out, nil
}

// ProgramStats describes one registered program in Stats, as of the
// published version. IDBSizes and Rules are shared with every other caller:
// read-only.
type ProgramStats struct {
	Name            string         `json:"name"`
	Hash            string         `json:"hash"`
	Version         int64          `json:"version"`
	Goal            string         `json:"goal"`
	Updates         int            `json:"updates"`
	Rounds          int            `json:"rounds"`
	Derivations     int            `json:"derivations"`
	IDBSizes        map[string]int `json:"idb_sizes"`
	MaintainTotalNs int64          `json:"maintain_total_ns"`
	MaintainLastNs  int64          `json:"maintain_last_ns"`
	// OverDeleted and Rederived total the program's delete maintenance: the
	// view tuples whose witness lost a fact, and the ones among them that
	// were derived again (datalog.EvalStats).
	OverDeleted int64               `json:"overdeleted"`
	Rederived   int64               `json:"rederived"`
	Rules       []datalog.RuleStats `json:"rules"`
}

// SnapshotStats describes one retained EDB version in Stats.
type SnapshotStats struct {
	Version  int64 `json:"version"`
	Facts    int   `json:"facts"`
	Inserted int   `json:"inserted"`
	Deleted  int   `json:"deleted"`
}

// Stats is the service-wide observability snapshot served at /v1/stats.
type Stats struct {
	Universe  int             `json:"universe"`
	Version   int64           `json:"version"`
	Oldest    int64           `json:"oldest_version"`
	Commits   int64           `json:"commits"`
	Queries   int64           `json:"queries"`
	Evals     int64           `json:"scratch_evals"`
	Snapshots []SnapshotStats `json:"snapshots"`
	Programs  []ProgramStats  `json:"programs"`
	Executor  struct {
		Workers  int   `json:"workers"`
		InFlight int64 `json:"in_flight"`
		Peak     int64 `json:"peak"`
		Total    int64 `json:"total"`
	} `json:"executor"`
	Magic struct {
		GoalQueries   int64 `json:"goal_queries"`
		RewriteHits   int64 `json:"rewrite_hits"`
		RewriteMisses int64 `json:"rewrite_misses"`
		Entries       int   `json:"rewrite_entries"`
		Capacity      int   `json:"rewrite_capacity"`
	} `json:"magic"`
	Stream struct {
		Queries      int64 `json:"queries"`
		Rows         int64 `json:"rows"`
		Active       int64 `json:"active"`
		PeakBuffered int64 `json:"peak_buffered_rows"`
	} `json:"stream"`
	Subscribe struct {
		Active    int   `json:"active"`
		Events    int64 `json:"events"`
		Replayed  int64 `json:"replayed"`
		Dropped   int64 `json:"dropped"`
		PeakQueue int64 `json:"peak_queue"`
		History   int   `json:"history"`
		Window    int   `json:"window"`
	} `json:"subscribe"`
	Planner struct {
		Enabled     bool   `json:"enabled"`
		Built       int64  `json:"plans_built"`
		CacheHits   int64  `json:"cache_hits"`
		CacheMisses int64  `json:"cache_misses"`
		RulesPruned int64  `json:"rules_pruned"`
		AtomsPruned int64  `json:"atoms_pruned"`
		Entries     int64  `json:"cache_entries"`
		Epoch       string `json:"stats_epoch"` // published snapshot's catalog fingerprint, hex
	} `json:"planner"`
	Storage struct {
		Enabled bool   `json:"enabled"`
		Dir     string `json:"dir,omitempty"`
		Fsync   string `json:"fsync,omitempty"`
		// Cumulative WAL counters for this process.
		Records       int64 `json:"wal_records"`
		AppendedBytes int64 `json:"wal_bytes"`
		Fsyncs        int64 `json:"wal_fsyncs"`
		Segments      int64 `json:"wal_segments"`
		Checkpoints   int64 `json:"checkpoints"`
		// What startup recovery rebuilt (see RecoveryInfo).
		RecoveredVersion  int64 `json:"recovered_version"`
		CheckpointVersion int64 `json:"checkpoint_version"`
		ReplayedCommits   int   `json:"replayed_commits"`
		TornTail          bool  `json:"torn_tail"`
		CorruptRecords    int   `json:"corrupt_records"`
		DroppedBytes      int64 `json:"dropped_bytes"`
		BadCheckpoints    int   `json:"bad_checkpoints"`
	} `json:"storage"`
}

// Stats assembles the current counters. Version and Programs are the
// published state's, so they agree with what a query at "latest" reads.
func (s *Service) Stats() Stats {
	var st Stats
	st.Universe = s.cfg.Universe
	st.Commits = s.commits.Load()
	st.Queries = s.met.queries.Value()
	st.Evals = s.met.scratchEvals.Value()
	for _, snap := range s.store.Snapshots() {
		st.Snapshots = append(st.Snapshots, SnapshotStats{
			Version: snap.Version, Facts: snap.Facts,
			Inserted: snap.Inserted, Deleted: snap.Deleted,
		})
	}
	pub := s.pub.Load()
	st.Version = pub.version
	st.Oldest = st.Snapshots[0].Version
	for _, pp := range pub.progs {
		st.Programs = append(st.Programs, pp.stats)
	}
	sort.Slice(st.Programs, func(i, j int) bool { return st.Programs[i].Name < st.Programs[j].Name })
	st.Magic.GoalQueries = s.met.goalQueries.Value()
	st.Magic.RewriteHits, st.Magic.RewriteMisses = s.met.rewriteHits.Value(), s.met.rewriteMisses.Value()
	st.Magic.Entries, st.Magic.Capacity = s.rewrites.Len(), s.rewrites.Cap()
	st.Stream.Queries = s.met.streamQueries.Value()
	st.Stream.Rows = s.met.streamRows.Value()
	st.Stream.Active = s.met.streamsActive.Value()
	st.Stream.PeakBuffered = s.met.streamPeakBuf.Value()
	st.Subscribe.Active = s.subs.active()
	st.Subscribe.Events = s.subs.events.Load()
	st.Subscribe.Replayed = s.subs.replayed.Load()
	st.Subscribe.Dropped = s.subs.dropped.Load()
	st.Subscribe.PeakQueue = s.subs.peakQueue.Load()
	st.Subscribe.History = s.subs.histLen()
	st.Subscribe.Window = s.subs.window
	st.Executor.Workers = s.exec.workers()
	st.Executor.InFlight = s.exec.inFlight.Load()
	st.Executor.Peak = s.exec.peak.Load()
	st.Executor.Total = s.exec.total.Load()
	pc := s.planner.Counters()
	st.Planner.Enabled = true
	st.Planner.Built = pc.Built
	st.Planner.CacheHits = pc.CacheHits
	st.Planner.CacheMisses = pc.CacheMisses
	st.Planner.RulesPruned = pc.RulesPruned
	st.Planner.AtomsPruned = pc.AtomsPruned
	st.Planner.Entries = pc.Entries
	st.Planner.Epoch = fmt.Sprintf("%016x", pub.snap.Stats.Fingerprint())
	if s.log != nil {
		c := s.log.Counters()
		st.Storage.Enabled = true
		st.Storage.Dir = s.log.Dir()
		st.Storage.Fsync = s.log.Policy().String()
		st.Storage.Records = c.Records
		st.Storage.AppendedBytes = c.AppendedBytes
		st.Storage.Fsyncs = c.Fsyncs
		st.Storage.Segments = c.Segments
		st.Storage.Checkpoints = c.Checkpoints
		st.Storage.RecoveredVersion = s.recovered.Version
		st.Storage.CheckpointVersion = s.recovered.CheckpointVersion
		st.Storage.ReplayedCommits = s.recovered.ReplayedCommits
		st.Storage.TornTail = s.recovered.TornTail
		st.Storage.CorruptRecords = s.recovered.CorruptRecords
		st.Storage.DroppedBytes = s.recovered.DroppedBytes
		st.Storage.BadCheckpoints = s.recovered.BadCheckpoints
	}
	return st
}
