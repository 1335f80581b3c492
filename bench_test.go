package trap

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the corresponding result at a reduced scale (the cmd/
// experiments binary runs the same drivers at configurable scale).
// Run with: go test -bench=. -benchmem
//
// The shapes to expect (paper vs. this reproduction) are recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// benchParams is the benchmark-scale configuration.
func benchParams() assess.Params {
	p := assess.QuickParams()
	p.Templates = 8
	p.TrainWorkloads = 4
	p.TestWorkloads = 4
	p.WorkloadSize = 5
	p.UtilitySamples = 250
	p.PretrainPairs = 4
	p.PretrainEpochs = 1
	p.RLEpochs = 2
	p.AdvisorEpisodes = 10
	return p
}

var (
	benchOnce  sync.Once
	benchSuite *assess.Suite
)

// suite lazily builds one shared TPC-H suite for all benchmarks.
func suite(b *testing.B) *assess.Suite {
	b.Helper()
	benchOnce.Do(func() {
		s, err := assess.NewSuite("tpch", bench.TPCH(benchParams().ScaleDown), benchParams(), 42)
		if err != nil {
			panic(err)
		}
		benchSuite = s
	})
	return benchSuite
}

// BenchmarkCostBatchWorkload times the hottest path in the repo — the
// what-if CostBatch every advisor and assessment bottoms out in — on a
// TPC-H-scale workload. Cold-cache per iteration so the benchmark times
// planning, not map lookups.
func BenchmarkCostBatchWorkload(b *testing.B) {
	s := suite(b)
	var items []engine.CostItem
	for _, w := range append(append([]*workload.Workload(nil), s.Train...), s.Test...) {
		items = append(items, w.Items...)
	}
	var cfg schema.Config
	for i, col := range s.Test[0].Columns() {
		if i >= 4 {
			break
		}
		cfg = cfg.Add(schema.Index{Table: col.Table, Columns: []string{col.Column}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.E.ClearCache()
		if _, err := s.E.CostBatch(context.Background(), items, cfg, engine.ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureWorkload times a full Random-method assessment over
// the suite's test workloads at several measurement pool sizes. The
// result is bit-identical across worker counts (the per-workload cells
// draw from seeded RNG streams and reduce in order), so the subbenches
// differ only in wall-clock.
func BenchmarkMeasureWorkload(b *testing.B) {
	s := suite(b)
	ctx := context.Background()
	adv := &advisor.Extend{Opt: advisor.DefaultOptions()}
	m, err := s.BuildMethod(ctx, "Random", core.ValueOnly, adv, nil, s.Storage, assess.MethodConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s.MeasureWorkers = workers
			defer func() { s.MeasureWorkers = 0 }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Measure(ctx, m, adv, nil, s.Storage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig1Templates(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := assess.Fig1([]*assess.Suite{s})
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTab1PerturbationExamples(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Tab1(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6RobustnessGrid(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := assess.Fig6([]*assess.Suite{s},
			[]string{"Extend", "Drop"}, []string{"Random", "TRAP"},
			[]core.PerturbConstraint{core.SharedTable})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7GenerationModules(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, err := assess.Fig7Tab4(s, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab4GenerationEfficiency(b *testing.B) {
	s := suite(b)
	results, _, _, err := assess.Fig7Tab4(s, 10)
	if err != nil {
		b.Fatal(err)
	}
	// The table's content is the #params/time ordering; the benchmark
	// itself times the decode loop of the largest and smallest module.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range results {
		}
		adv, _ := s.BuildAdvisor(mustSpec(b, "Extend"))
		m, err := s.BuildMethod(context.Background(), "Random", core.SharedTable, adv, nil, s.Storage, assess.MethodConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.GenerationCost(m, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func mustSpec(b *testing.B, name string) assess.AdvisorSpec {
	b.Helper()
	sp, err := assess.SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

func BenchmarkFig8TrainingParadigm(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assess.Fig8(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Hyperparams(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig9(s, []string{"Random", "TRAP"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Scalability(b *testing.B) {
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig10(p, []int{809}, []string{"Random", "TRAP"}, 42); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11StorageBudget(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig11(s, []string{"Random", "TRAP"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12StateGranularity(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig12(s, []core.PerturbConstraint{core.SharedTable}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13CandidatePruning(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig13(s, core.SharedTable); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14IndexInteraction(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig14(s, core.SharedTable); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15MultiColumn(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assess.Fig15(s, core.SharedTable); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16QueryChanges(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assess.Fig16(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17OOD(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assess.Fig17(s, 1); err != nil {
			b.Fatal(err)
		}
	}
}
