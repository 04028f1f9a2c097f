package shard_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDistSmoke is the distributed end-to-end check the `make dist-smoke`
// CI lane runs, entirely through the real binaries: train a tiny preset
// single-process and with -workers 2 and require bit-identical model
// files, then stand up two alsserve shard replicas and an alsfront
// frontend, serve a merged recommendation, hold the frontend's /metrics to
// the strict exposition parser, and tear everything down (the processes
// are killed by deferred stops even when an assertion fails, so a broken
// run leaves no orphans).
func TestDistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the alstrain/alsserve/alsfront binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"alstrain", "alsserve", "alsfront"} {
		bin := filepath.Join(dir, name)
		build := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// Distributed training must be byte-identical to single-process, in
	// the explicit mode and in implicit mode through the CG solver. The
	// explicit single-process model is the one the fleet below serves.
	single := filepath.Join(dir, "single.model")
	trainArgs := []string{"-preset", "YMR4", "-scale", "0.02", "-iters", "2",
		"-k", "6", "-test-frac", "0", "-seed", "11"}
	for i, mode := range [][]string{nil, {"-implicit", "-solver", "cg"}} {
		args := append(append([]string{}, trainArgs...), mode...)
		ref, dist := single, filepath.Join(dir, fmt.Sprintf("dist%d.model", i))
		if i > 0 {
			ref = filepath.Join(dir, fmt.Sprintf("single%d.model", i))
		}
		for _, run := range [][]string{
			append(args[:len(args):len(args)], "-out", ref),
			append(args[:len(args):len(args)], "-workers", "2", "-out", dist),
		} {
			cmd := exec.Command(bins["alstrain"], run...)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("alstrain %v: %v\n%s", run, err, out)
			}
		}
		a, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(dist)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("-workers 2 %v model differs from single-process (%d vs %d bytes)", mode, len(b), len(a))
		}
	}

	// Two shard replicas on ephemeral ports.
	var shardURLs []string
	for i := 0; i < 2; i++ {
		addr := startServer(t, bins["alsserve"],
			[]string{"-model", single, "-shard", fmt.Sprintf("%d/2", i), "-addr", "127.0.0.1:0"},
			"alsserve: listening on ")
		shardURLs = append(shardURLs, "http://"+addr)
	}

	frontAddr := startServer(t, bins["alsfront"],
		[]string{"-shards", strings.Join(shardURLs, ","), "-addr", "127.0.0.1:0",
			"-probe-interval", "100ms"},
		"alsfront: listening on ")
	frontURL := "http://" + frontAddr

	// Wait for the prober to mark both shards up.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(frontURL + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("frontend never became ready")
		}
		time.Sleep(100 * time.Millisecond)
	}

	resp, err := http.Get(frontURL + "/v1/recommend?user=1&n=5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend through the fleet: HTTP %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"items":[{`)) || bytes.Contains(body, []byte(`"partial":true`)) {
		t.Fatalf("recommend response not a full merged top-N: %s", body)
	}

	mresp, err := http.Get(frontURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("frontend exposition invalid: %v\n%s", err, raw)
	} else if n == 0 {
		t.Fatal("frontend exposition empty")
	}
	for _, want := range []string{"als_shard_partial_total", "als_front_requests_total", "als_front_shard_up"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("frontend exposition lacks %s:\n%s", want, raw)
		}
	}
}

// startServer launches a server binary, waits for its "listening on" line,
// and returns the bound address. The process is killed on test cleanup —
// including failures — so the smoke lane cannot leak orphans.
func startServer(t *testing.T, bin string, args []string, listenPrefix string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("%s exited before announcing its address", bin)
			}
			if rest, found := strings.CutPrefix(line, listenPrefix); found {
				addr := strings.Fields(rest)[0]
				addr = strings.TrimSuffix(addr, ",")
				go func() {
					for range lines {
					}
				}()
				return addr
			}
		case <-deadline:
			t.Fatalf("%s never announced its address", bin)
		}
	}
}
