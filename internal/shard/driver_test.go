package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/variant"
)

// modeSpec is the shared workload of the driver tests: big enough that
// every row partition at 2 workers is non-empty, small enough for a table.
var modeSpec = DataSpec{Preset: "YMR4", Scale: 0.02, Seed: 5, TestFrac: 0}

// trainingModes is every training mode the distributed path must honour
// bit-identically: the explicit objective under each row solver, and the
// implicit one under the direct solve, CG and iALS++ blocks.
var trainingModes = map[string]func(*TrainerConfig){
	"explicit/chol":    func(c *TrainerConfig) {},
	"explicit/ldl":     func(c *TrainerConfig) { c.Solver = host.SolverLDL },
	"explicit/cg":      func(c *TrainerConfig) { c.Solver = host.SolverCG },
	"implicit/chol":    func(c *TrainerConfig) { c.Implicit, c.Alpha = true, 10 },
	"implicit/cg":      func(c *TrainerConfig) { c.Implicit, c.Alpha, c.Solver = true, 10, host.SolverCG },
	"implicit/block-4": func(c *TrainerConfig) { c.Implicit, c.Alpha, c.BlockSize = true, 10, 4 },
}

// TestDistributedModesBitIdentity: in every training mode, shard.Train at 1
// and 2 workers reproduces core.Train bit for bit, and a distributed run
// resumed at iteration 2 of 4 reproduces the uninterrupted one.
func TestDistributedModesBitIdentity(t *testing.T) {
	mx, err := modeSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	for name, mode := range trainingModes {
		base := TrainerConfig{K: 8, Lambda: 0.1, Iterations: 4, Seed: 5,
			UseRecommended: true, Data: modeSpec}
		mode(&base)
		ref, _, err := core.Train(mx, base.coreConfig())
		if err != nil {
			t.Fatalf("%s: core.Train: %v", name, err)
		}
		for _, workers := range []int{1, 2} {
			cfg := base
			cfg.Workers = workers
			m, _, err := Train(mx, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			bitsEqual(t, name+" X", m.X, ref.X)
			bitsEqual(t, name+" Y", m.Y, ref.Y)
		}

		cfg := base
		cfg.Workers, cfg.Iterations, cfg.CheckpointDir = 2, 2, t.TempDir()
		if _, _, err := Train(mx, cfg); err != nil {
			t.Fatalf("%s first two iterations: %v", name, err)
		}
		cfg.Iterations, cfg.Resume = 4, true
		m, info, err := Train(mx, cfg)
		if err != nil {
			t.Fatalf("%s resume: %v", name, err)
		}
		if info.ResumedFrom != 2 {
			t.Fatalf("%s: resumed from %d, want 2", name, info.ResumedFrom)
		}
		bitsEqual(t, name+" resumed X", m.X, ref.X)
		bitsEqual(t, name+" resumed Y", m.Y, ref.Y)
	}
}

// TestResumeMismatchBothTrainers is generated over every training-mode
// field checkpoint.State records: a checkpoint written under one value of
// the field must be refused — with the typed mismatch error naming it — by
// a Resume under another value, through core.Train and shard.Train alike.
func TestResumeMismatchBothTrainers(t *testing.T) {
	mx, err := modeSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	explicit := TrainerConfig{Workers: 2, K: 4, Lambda: 0.1, Iterations: 1, Seed: 5,
		UseRecommended: true, Data: modeSpec}
	implicit := explicit
	implicit.Implicit, implicit.Alpha = true, 40
	implicitCG := implicit
	implicitCG.Solver, implicitCG.CGIters = host.SolverCG, 3
	quantized := explicit
	quantized.CheckpointPrecision = quant.I8

	rows := []struct {
		stateField string // the checkpoint.State field under test
		want       string // ResumeMismatchError.Field
		wrote      TrainerConfig
		resume     func(*TrainerConfig)
	}{
		{"K", "k", explicit, func(c *TrainerConfig) { c.K = 6 }},
		{"Lambda", "lambda", explicit, func(c *TrainerConfig) { c.Lambda = 0.2 }},
		{"Seed", "seed", explicit, func(c *TrainerConfig) { c.Seed = 6 }},
		{"WeightedLambda", "weighted-lambda", explicit, func(c *TrainerConfig) { c.WeightedLambda = true }},
		{"Variant", "variant", explicit, func(c *TrainerConfig) { c.Variant = variant.Options{Local: true} }},
		{"Implicit", "implicit", explicit, func(c *TrainerConfig) { c.Implicit, c.Alpha = true, 40 }},
		{"Implicit", "implicit", implicit, func(c *TrainerConfig) { c.Implicit, c.Alpha = false, 0 }},
		{"Alpha", "alpha", implicit, func(c *TrainerConfig) { c.Alpha = 20 }},
		{"Solver", "solver", implicit, func(c *TrainerConfig) { c.Solver = host.SolverCG }},
		{"CGIters", "cg-iters", implicitCG, func(c *TrainerConfig) { c.CGIters = 4 }},
		{"BlockSize", "block-size", implicit, func(c *TrainerConfig) { c.BlockSize = 2 }},
		{"Precision", "precision", quantized, func(c *TrainerConfig) { c.CheckpointPrecision = quant.F32 }},
	}

	// Every State field except the iteration, the factors and the history
	// is part of the resume contract and needs a row.
	covered := map[string]bool{}
	for _, r := range rows {
		covered[r.stateField] = true
	}
	notMode := map[string]bool{"Iteration": true, "X": true, "Y": true, "QX": true, "QY": true, "History": true}
	st := reflect.TypeOf(checkpoint.State{})
	for i := 0; i < st.NumField(); i++ {
		if f := st.Field(i).Name; !notMode[f] && !covered[f] {
			t.Errorf("checkpoint.State.%s has no resume-mismatch row", f)
		}
	}

	for _, r := range rows {
		wrote := r.wrote
		wrote.CheckpointDir = t.TempDir()
		if _, _, err := core.Train(mx, wrote.coreConfig()); err != nil {
			t.Fatalf("%s: writing checkpoint: %v", r.stateField, err)
		}
		cfg := wrote
		cfg.Iterations, cfg.Resume = 2, true
		r.resume(&cfg)
		_, _, coreErr := core.Train(mx, cfg.coreConfig())
		_, _, distErr := Train(mx, cfg)
		for trainer, err := range map[string]error{"core.Train": coreErr, "shard.Train": distErr} {
			var mm *core.ResumeMismatchError
			if !errors.As(err, &mm) || mm.Field != r.want {
				t.Errorf("%s via %s: err = %v, want a ResumeMismatchError on %q", r.stateField, trainer, err, r.want)
			}
		}
	}
}

// TestDistributedFeedsObs: a distributed run reports into Config.Obs like
// a single-process one — one half event per half-iteration, one checkpoint
// save per iteration, and the very loss points the single-process run
// records — and its checkpoints carry the loss history.
func TestDistributedFeedsObs(t *testing.T) {
	mx, err := modeSpec.Load()
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	run := func(dist bool) (*obs.TrainRecorder, *checkpoint.State) {
		cfg := core.Config{K: 6, Lambda: 0.1, Iterations: iters, Seed: 5, UseRecommended: true,
			TrackLoss: true, CheckpointDir: t.TempDir(), Obs: obs.NewTrainRecorder()}
		var err error
		if dist {
			_, _, err = TrainWith(mx, cfg, TrainerConfig{Workers: 2, Data: modeSpec})
		} else {
			_, _, err = core.Train(mx, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := checkpoint.LoadLatest(checkpoint.OS, cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.Obs, st
	}
	events := func(rec *obs.TrainRecorder) (halves, saves int, losses []float64) {
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var ev obs.RunEvent
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
			switch {
			case ev.Event == "half":
				halves++
			case ev.Event == "checkpoint" && ev.Op == "save":
				saves++
			case ev.Event == "loss":
				losses = append(losses, *ev.Loss)
			}
		}
		return halves, saves, losses
	}

	singleRec, singleSt := run(false)
	distRec, distSt := run(true)
	_, _, wantLosses := events(singleRec)
	halves, saves, losses := events(distRec)
	if halves != 2*iters || saves != iters {
		t.Errorf("distributed run recorded %d halves and %d checkpoint saves, want %d and %d", halves, saves, 2*iters, iters)
	}
	if len(wantLosses) != 2*iters || !reflect.DeepEqual(losses, wantLosses) {
		t.Errorf("distributed losses %v, want the single-process %v", losses, wantLosses)
	}
	if got := historyLosses(distSt); !reflect.DeepEqual(got, wantLosses) {
		t.Errorf("distributed checkpoint history %v, want %v", got, wantLosses)
	}
	if got := historyLosses(singleSt); !reflect.DeepEqual(got, wantLosses) {
		t.Errorf("single-process checkpoint history %v, want %v", got, wantLosses)
	}
}

func historyLosses(st *checkpoint.State) []float64 {
	var out []float64
	for _, h := range st.History {
		out = append(out, h.Loss)
	}
	return out
}
