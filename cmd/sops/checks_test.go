package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sops"
)

// TestFrontDoorsShareRunnerChecks: one bad run option sent through `sops
// run`, `sops sweep`, POST run and POST sweep is refused by the one runner
// check of that option, so all four errors carry its message.
func TestFrontDoorsShareRunnerChecks(t *testing.T) {
	h, _ := startNode(t, sops.ServeOptions{})
	post := func(body string) string {
		t.Helper()
		resp, err := http.Post("http://"+h.addr+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "invalid_spec" {
			t.Errorf("POST %s: %d %q, want 400 invalid_spec", body, resp.StatusCode, env.Error.Code)
		}
		return env.Error.Message
	}
	for _, tc := range []struct {
		name       string
		run, sweep []string // flags, after a valid base
		runJSON    string   // the run options
		sweepJSON  string   // the sweep spec
		want       string
	}{
		{"start", []string{"-start", "pyramid"}, []string{"-starts", "pyramid"},
			`{"n":10,"lambda":4,"start":"pyramid"}`,
			`{"scenario":"compress","sizes":[10],"starts":["pyramid"]}`,
			`runner: unknown start shape "pyramid"`},
		{"engine", []string{"-engine", "quantum"}, []string{"-engines", "quantum"},
			`{"n":10,"lambda":4,"engine":"quantum"}`,
			`{"scenario":"compress","sizes":[10],"engines":["quantum"]}`,
			`runner: unknown engine "quantum"`},
		{"n", []string{"-n", "0"}, []string{"-sizes", "0"},
			`{"n":0,"lambda":4}`,
			`{"scenario":"compress","sizes":[0]}`,
			"runner: N must be positive, got 0"},
		{"crash on chain", []string{"-crash", "0.1", "-engine", "chain"}, []string{"-crash", "0.1", "-engines", "chain"},
			`{"n":10,"lambda":4,"engine":"chain","crash_fraction":0.1}`,
			`{"scenario":"compress","sizes":[10],"engines":["chain"],"crash_fractions":[0.1]}`,
			"runner: CrashFraction requires the amoebot engine"},
		{"crash range", []string{"-crash", "1.5", "-engine", "amoebot"}, []string{"-crash", "1.5", "-engines", "amoebot"},
			`{"n":10,"lambda":4,"engine":"amoebot","crash_fraction":1.5}`,
			`{"scenario":"compress","sizes":[10],"engines":["amoebot"],"crash_fractions":[1.5]}`,
			"runner: CrashFraction must be in [0,1), got 1.5"},
		{"rule states", []string{"-states", "-1"}, []string{"-states", "-1"},
			`{"n":10,"lambda":4,"rule_states":-1}`,
			`{"scenario":"compress","sizes":[10],"rule_states":-1}`,
			"runner: RuleStates must be non-negative, got -1"},
		{"forage on compression", []string{"-forage-radius", "3"}, []string{"-forage-radius", "3"},
			`{"n":10,"lambda":4,"forage":{"radius":3}}`,
			`{"scenario":"compress","sizes":[10],"forage":{"radius":3}}`,
			`runner: a Forage schedule requires Rule "forage"`},
	} {
		runArgs := append([]string{"-n", "10", "-lambda", "4", "-iters", "100", "-snapshots", "0", "-render=false"}, tc.run...)
		_, runErr := captureStdout(t, func() error { return cmdRun(runArgs) })
		sweepArgs := append([]string{"-scenario", "compress", "-sizes", "10", "-iters", "100", "-reps", "1", "-quiet"}, tc.sweep...)
		_, sweepErr := captureStdout(t, func() error { return cmdSweep(sweepArgs) })
		errs := map[string]string{
			"POST run":   post(`{"run":` + tc.runJSON + `}`),
			"POST sweep": post(`{"spec":` + tc.sweepJSON + `}`),
		}
		for door, err := range map[string]error{"sops run": runErr, "sops sweep": sweepErr} {
			errs[door] = "<nil>"
			if err != nil {
				errs[door] = err.Error()
			}
		}
		for door, msg := range errs {
			if !strings.Contains(msg, tc.want) {
				t.Errorf("%s: %s: %q does not contain %q", tc.name, door, msg, tc.want)
			}
		}
	}
}
