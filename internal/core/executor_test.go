package core

import (
	"errors"
	"testing"

	"repro/internal/guard"
	"repro/internal/host"
	"repro/internal/linalg"
)

// requireUnsupported runs TrainOn with cfg over an executor that must never
// be built, and requires the typed up-front rejection of option.
func requireUnsupported(t *testing.T, cfg Config, option string) {
	t.Helper()
	newExec := func(host.Config, *linalg.Dense, *linalg.Dense) (host.Executor, error) {
		t.Fatalf("executor built despite unsupported %s", option)
		return nil, nil
	}
	_, _, err := TrainOn(ckptMatrix(t), cfg, newExec)
	var ue *UnsupportedError
	if !errors.As(err, &ue) || ue.Option != option {
		t.Fatalf("err = %v, want an UnsupportedError on %s", err, option)
	}
}

func TestTrainOnRejectsSimulatedPlatform(t *testing.T) {
	requireUnsupported(t, Config{K: 4, Lambda: 0.1, Platform: "GPU"}, "Platform")
}

func TestTrainOnRejectsGuard(t *testing.T) {
	requireUnsupported(t, Config{K: 4, Lambda: 0.1, Guard: guard.New(guard.Policy{})}, "Guard")
}

func TestTrainOnRejectsAutoVariant(t *testing.T) {
	requireUnsupported(t, Config{K: 4, Lambda: 0.1, AutoVariant: true}, "AutoVariant")
}
