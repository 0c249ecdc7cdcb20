package stem

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/flow"
	"repro/internal/pred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/source"
	"repro/internal/tuple"
	"repro/internal/value"
)

// threeTableQ builds R(k,a) ⋈ S(x,y) ⋈ T(z): R.a = S.x and T.z = S.y.
// SteM(S) has join columns {x, y} and partitions on x, so R-side probes
// address one shard while T-side probes bind only y and must sweep.
func threeTableQ(t *testing.T) *query.Q {
	t.Helper()
	rT := schema.MustTable("R", schema.IntCol("k"), schema.IntCol("a"))
	sT := schema.MustTable("S", schema.IntCol("x"), schema.IntCol("y"))
	tT := schema.MustTable("T", schema.IntCol("z"))
	empty := func(s *schema.Table) *source.Table { return source.MustTable(s, nil) }
	return query.MustNew(
		[]*schema.Table{rT, sT, tT},
		[]pred.P{pred.EquiJoin(0, 1, 1, 0), pred.EquiJoin(2, 0, 1, 1)},
		[]query.AMDecl{
			{Table: 0, Kind: query.Scan, Data: empty(rT)},
			{Table: 1, Kind: query.Scan, Data: empty(sT)},
			{Table: 2, Kind: query.Scan, Data: empty(tT)},
		},
	)
}

// shardInputs is one run's freshly allocated tuples (tuples are mutated by
// processing, so the sharded and unsharded runs need separate instances).
type shardInputs struct {
	builds []*tuple.Tuple // S singletons
	eot    *tuple.Tuple   // full EOT on S
	probes []*tuple.Tuple // built R and T singletons (single-shard and sweep)
}

func makeShardInputs(q *query.Q, c *Counter, rows int) *shardInputs {
	in := &shardInputs{}
	n := q.NumTables()
	for i := 0; i < rows; i++ {
		in.builds = append(in.builds, tuple.NewSingleton(n, 1,
			tuple.Row{value.NewInt(int64(i % 32)), value.NewInt(int64(i % 16))}))
	}
	eotRow := tuple.Row{value.NewEOT(), value.NewEOT()}
	in.eot = tuple.NewEOT(n, 1, eotRow, nil)
	// R-side probes bind S.x (partition column): single-shard.
	for i := 0; i < rows; i++ {
		p := tuple.NewSingleton(n, 0, tuple.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 32))})
		p.Built = tuple.Single(0)
		in.probes = append(in.probes, p)
	}
	// T-side probes bind only S.y: sweep (flow.ShardAny).
	for i := 0; i < rows/2; i++ {
		p := tuple.NewSingleton(n, 2, tuple.Row{value.NewInt(int64(i % 16))})
		p.Built = tuple.Single(2)
		in.probes = append(in.probes, p)
	}
	return in
}

// stampProbes gives every probe a timestamp later than all builds.
func stampProbes(in *shardInputs, c *Counter) {
	for _, p := range in.probes {
		p.CompTS[p.SingleTable()] = c.Next()
	}
}

// matchKeys collects the ResultKeys of emitted concatenations (emissions
// that are not the input tuple itself bouncing back).
func matchKeys(in *tuple.Tuple, ems []flow.Emission, into map[string]int) {
	for _, e := range ems {
		if e.T != in {
			into[e.T.ResultKey()]++
		}
	}
}

// TestShardedSteMEquivalence drives one SteM with concurrent builds and
// probes through the flow.Sharded contract at shard counts 1, 2, and 8 and
// asserts the produced match multiset is identical to the unsharded
// sequential path. Run with -race: the build phase exercises per-shard
// locking, the EOT phase the ShardAll replication countdown, and the probe
// phase both single-shard probes and cross-shard sweeps.
func TestShardedSteMEquivalence(t *testing.T) {
	q := threeTableQ(t)
	const rows = 256

	// Reference: unsharded, sequential.
	want := make(map[string]int)
	var wantStats Stats
	var wantSize int
	{
		c := &Counter{}
		s := New(Config{Table: 1, Q: q, TS: c})
		in := makeShardInputs(q, c, rows)
		for _, b := range in.builds {
			s.Process(b, 0)
		}
		s.Process(in.eot, 0)
		stampProbes(in, c)
		for _, p := range in.probes {
			ems, _ := s.Process(p, 0)
			matchKeys(p, ems, want)
		}
		if len(want) == 0 {
			t.Fatal("reference run produced no matches; test data is broken")
		}
		wantStats = s.Stats()
		wantSize = s.Size()
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := &Counter{}
			s := New(Config{Table: 1, Q: q, TS: c, Shards: shards})
			if got := s.Shards(); got != shards {
				t.Fatalf("Shards() = %d, want %d", got, shards)
			}
			in := makeShardInputs(q, c, rows)

			// Phase 1: concurrent builds, one goroutine per shard, each
			// processing only the tuples that address its shard.
			perShard := make([][]*tuple.Tuple, shards)
			for _, b := range in.builds {
				sd := s.ShardOf(b)
				if sd < 0 {
					t.Fatalf("build tuple classified %d, want a shard index", sd)
				}
				perShard[sd] = append(perShard[sd], b)
			}
			var wg sync.WaitGroup
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, b := range perShard[w] {
						s.ProcessShard(w, flow.BatchOf(b), 0)
					}
				}(w)
			}
			wg.Wait()

			// Phase 2: the full EOT replicated to every shard concurrently,
			// as the engine delivers flow.ShardAll tuples.
			if shards > 1 {
				if sd := s.ShardOf(in.eot); sd != flow.ShardAll {
					t.Fatalf("EOT classified %d, want ShardAll", sd)
				}
			}
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s.ProcessShard(w, flow.BatchOf(in.eot), 0)
				}(w)
			}
			wg.Wait()

			// Phase 3: concurrent probes. Single-shard probes go to their
			// home worker; sweeps round-robin across workers.
			stampProbes(in, c)
			probeShard := make([][]*tuple.Tuple, shards)
			rr := 0
			for _, p := range in.probes {
				sd := s.ShardOf(p)
				if sd == flow.ShardAny {
					sd = rr % shards
					rr++
				}
				probeShard[sd] = append(probeShard[sd], p)
			}
			got := make(map[string]int)
			var mu sync.Mutex
			for w := 0; w < shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					local := make(map[string]int)
					for _, p := range probeShard[w] {
						ems, _ := s.ProcessShard(w, flow.BatchOf(p), 0)
						matchKeys(p, ems, local)
					}
					mu.Lock()
					for k, v := range local {
						got[k] += v
					}
					mu.Unlock()
				}(w)
			}
			wg.Wait()

			if len(got) != len(want) {
				t.Fatalf("distinct matches = %d, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("match %q count = %d, want %d", k, got[k], v)
				}
			}
			st := s.Stats()
			if st.Builds != wantStats.Builds || st.DupBuilds != wantStats.DupBuilds {
				t.Errorf("Builds/DupBuilds = %d/%d, want %d/%d",
					st.Builds, st.DupBuilds, wantStats.Builds, wantStats.DupBuilds)
			}
			if st.Matches != wantStats.Matches {
				t.Errorf("Matches = %d, want %d", st.Matches, wantStats.Matches)
			}
			if st.EOTs != 1 {
				t.Errorf("EOTs = %d, want 1 (replicated deliveries must record once)", st.EOTs)
			}
			if s.Size() != wantSize {
				t.Errorf("Size = %d, want %d", s.Size(), wantSize)
			}
		})
	}
}

// TestShardOfStability pins the partitioning function's contract: equal
// partition-column values address the same shard from both the build and the
// probe side, and shard counts round up to powers of two.
func TestShardOfStability(t *testing.T) {
	q := threeTableQ(t)
	s := New(Config{Table: 1, Q: q, TS: &Counter{}, Shards: 5})
	if got := s.Shards(); got != 8 {
		t.Fatalf("Shards(5 requested) = %d, want 8 (next power of two)", got)
	}
	n := q.NumTables()
	for v := int64(0); v < 64; v++ {
		b := tuple.NewSingleton(n, 1, tuple.Row{value.NewInt(v), value.NewInt(0)})
		p := tuple.NewSingleton(n, 0, tuple.Row{value.NewInt(9), value.NewInt(v)})
		p.Built = tuple.Single(0)
		bs, ps := s.ShardOf(b), s.ShardOf(p)
		if bs < 0 || bs >= 8 {
			t.Fatalf("build shard %d out of range", bs)
		}
		if bs != ps {
			t.Fatalf("value %d: build shard %d != probe shard %d", v, bs, ps)
		}
	}
	// Window eviction order is global state: windowed SteMs stay unsharded
	// so windowed results cannot depend on the shard count.
	w := New(Config{Table: 1, Q: q, TS: &Counter{}, Shards: 8, Window: 4})
	if got := w.Shards(); got != 1 {
		t.Fatalf("windowed SteM Shards() = %d, want 1", got)
	}
}
