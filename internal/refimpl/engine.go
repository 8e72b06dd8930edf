package refimpl

import (
	"fmt"
	"os"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/core"
	"telegraphcq/internal/eddy"
	"telegraphcq/internal/executor"
	"telegraphcq/internal/tuple"
)

// EngineConfig is one point in the adaptivity-knob sweep. Every config
// must produce the same per-query output multisets — batching, routing
// policy, EO placement, and injected backpressure are all supposed to
// be invisible to query answers.
type EngineConfig struct {
	Label  string
	Batch  int
	Mode   executor.ClassMode
	Policy func(seed int64) eddy.Policy
	// Shards is the hash-shard count per EO (0/1 = none: the EO's inline
	// catch-all hosts every query; N>1 = N hash shards beside it).
	// Sharding must be invisible to query answers, so the sweep crosses
	// it with the other knobs.
	Shards int
	// Chaos is a chaos.Parse spec ("" = none). The oracle only injects
	// lossless faults (queue-full bursts against blocking QoS), so
	// answers must still match exactly.
	Chaos string
	// Interpreted forces the tree-walking expression interpreter
	// (executor.ExprInterpreted). The default sweeps run compiled; the
	// interpreted mirrors pin compiled-vs-interpreted equivalence.
	Interpreted bool
}

// Configs returns the standard sweep: shard count × routing policy,
// with batch size and EO class mode cycled across cells so every value
// of each knob appears against every shard count. withChaos appends a
// backpressure-burst config.
func Configs(withChaos bool) []EngineConfig {
	return buildConfigs(withChaos, false)
}

// SmokeConfigs is the 4-config subset the in-tree smoke test uses (one
// per shard count, plus one interpreted mirror).
func SmokeConfigs() []EngineConfig {
	all := buildConfigs(false, false)
	return []EngineConfig{all[0], all[4], all[8], all[9]}
}

func buildConfigs(withChaos, _ bool) []EngineConfig {
	shardCounts := []int{1, 2, 4}
	batches := []int{1, 64, 512}
	policies := []struct {
		name string
		fn   func(seed int64) eddy.Policy
	}{
		{"fixed", func(int64) eddy.Policy { return eddy.NewFixed(nil) }},
		{"random", func(seed int64) eddy.Policy { return eddy.NewRandom(seed) }},
		{"lottery", func(seed int64) eddy.Policy { return eddy.NewLottery(seed) }},
	}
	modes := []executor.ClassMode{executor.ClassByFootprint, executor.ClassSingle, executor.ClassPerQuery}
	var out []EngineConfig
	for si, sc := range shardCounts {
		for pi, p := range policies {
			b := batches[(si+pi)%len(batches)]
			m := modes[(si+pi)%len(modes)]
			out = append(out, EngineConfig{
				Label:  fmt.Sprintf("shards=%d/policy=%s/batch=%d/mode=%s", sc, p.name, b, m),
				Batch:  b,
				Mode:   m,
				Policy: p.fn,
				Shards: sc,
			})
		}
	}
	// Interpreted mirrors: same workload through the reference
	// interpreter so the compiled bytecode path can never silently
	// diverge (shards {1,4} x batch {1,64,512}, policies cycled).
	for i, sc := range []int{1, 1, 1, 4, 4, 4} {
		b := batches[i%len(batches)]
		p := policies[i%len(policies)]
		m := modes[i%len(modes)]
		out = append(out, EngineConfig{
			Label:       fmt.Sprintf("shards=%d/policy=%s/batch=%d/mode=%s/expr=interpreted", sc, p.name, b, m),
			Batch:       b,
			Mode:        m,
			Policy:      p.fn,
			Shards:      sc,
			Interpreted: true,
		})
	}
	if withChaos {
		out = append(out, EngineConfig{
			Label:  "shards=2/policy=lottery/batch=1/mode=footprint/chaos=full",
			Batch:  1,
			Mode:   executor.ClassByFootprint,
			Policy: func(seed int64) eddy.Policy { return eddy.NewLottery(seed) },
			Shards: 2,
			Chaos:  "seed=7,full=0.2",
		})
	}
	return out
}

// RunEngine replays the workload against a real engine instance under
// one config and returns the per-query output multisets. Any tuple loss
// (QoS shedding, subscription drops) is an error, not a diff — the
// harness configures lossless delivery, so loss means the harness's
// premise broke and a diff would be noise.
func RunEngine(w *Workload, cfg EngineConfig) (map[int]Multiset, error) {
	var inj *chaos.Injector
	if cfg.Chaos != "" {
		var err error
		if inj, err = chaos.Parse(cfg.Chaos); err != nil {
			return nil, err
		}
	}
	opts := core.Options{Executor: executor.Options{
		Mode:            cfg.Mode,
		Policy:          cfg.Policy,
		QueueCap:        1 << 15,
		SubscriptionCap: 1 << 17,
		Batch:           cfg.Batch,
		Shards:          cfg.Shards,
		SampleInterval:  -1,
		Chaos:           inj,
	}}
	if cfg.Interpreted {
		opts.Executor.CompiledExpr = executor.ExprInterpreted
	}
	for _, s := range w.Streams {
		if s.Archived {
			dir, err := os.MkdirTemp("", "tcqcheck-*")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			opts.DataDir = dir
			break
		}
	}
	sys := core.NewSystem(opts)
	defer sys.Close()
	for _, s := range w.Streams {
		if err := sys.Exec(s.DDL()); err != nil {
			return nil, fmt.Errorf("%s: %w", s.DDL(), err)
		}
	}

	results := map[int]Multiset{}
	for qi := range w.Queries {
		results[qi] = Multiset{}
	}
	// live maps query index → open handles (usually one; re-adds stack).
	live := map[int][]*core.Query{}
	drainHandle := func(qi int, q *core.Query) error {
		for {
			t, ok := q.TryNext()
			if !ok {
				break
			}
			results[qi].Add(RenderRow(t.Values))
		}
		if d := q.Dropped(); d != 0 {
			return fmt.Errorf("query %d dropped %d rows (subscription overflow — raise caps)", qi, d)
		}
		return nil
	}
	quiesce := func() error {
		if err := sys.Barrier(); err != nil {
			return err
		}
		for qi, qs := range live {
			for _, q := range qs {
				if err := drainHandle(qi, q); err != nil {
					return err
				}
			}
		}
		return nil
	}

	pushes := 0
	for _, e := range w.Events {
		switch e.Kind {
		case EvPush:
			var wall time.Time
			if e.WallMs > 0 {
				wall = time.UnixMilli(e.WallMs)
			}
			if err := sys.PushStamped(e.Stream, wall, e.Values...); err != nil {
				return nil, fmt.Errorf("push %s: %w", e.Stream, err)
			}
			pushes++
			if w.BarrierEvery > 0 && pushes%w.BarrierEvery == 0 {
				if err := quiesce(); err != nil {
					return nil, err
				}
			}
		case EvAdd:
			if err := quiesce(); err != nil {
				return nil, err
			}
			def := w.Queries[e.Query]
			q, err := sys.Submit(def.SQL)
			if def.ExpectErr {
				if err == nil {
					_ = q.Cancel()
					return nil, fmt.Errorf("query %d was accepted but must be rejected: %s", e.Query, def.SQL)
				}
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("submit query %d (%s): %w", e.Query, def.SQL, err)
			}
			if q.ID == -1 {
				// Historical: completed at submission; collect now.
				if err := drainHandle(e.Query, q); err != nil {
					return nil, err
				}
				continue
			}
			live[e.Query] = append(live[e.Query], q)
		case EvRemove:
			if err := quiesce(); err != nil {
				return nil, err
			}
			qs := live[e.Query]
			if len(qs) == 0 {
				continue
			}
			q := qs[len(qs)-1]
			live[e.Query] = qs[:len(qs)-1]
			// LIMIT queries cancel themselves asynchronously; a second
			// cancel racing that is fine, the drain below is what matters.
			_ = q.Cancel()
			if err := drainHandle(e.Query, q); err != nil {
				return nil, err
			}
		case EvBarrier:
			if err := quiesce(); err != nil {
				return nil, err
			}
		}
	}
	if err := quiesce(); err != nil {
		return nil, err
	}
	for qi, qs := range live {
		for _, q := range qs {
			_ = q.Cancel()
			if err := drainHandle(qi, q); err != nil {
				return nil, err
			}
		}
	}
	if shed := sys.Executor().Shed(); shed != 0 {
		return nil, fmt.Errorf("engine shed %d tuples under blocking QoS — lossy run, diff would be noise", shed)
	}
	return results, nil
}

// renderTuple is a debugging aid: the human-readable form of an engine
// output row (RenderRow is the comparable form).
func renderTuple(t *tuple.Tuple) string { return t.String() }
