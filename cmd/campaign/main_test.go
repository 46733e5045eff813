package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, spec string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rejected := write("rejected.json", `{"name":"x","faults":[{"direction":"up","commands":["STAT"]}]}`)
	valid := write("valid.json", `{"name":"short","duration_ms":5,"faults":[{"commands":["COMPARE -- -- -- X0C"],"duty_on_ms":1,"duty_period_ms":2}]}`)
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no arguments", nil, 2},
		{"example", []string{"-example"}, 0},
		{"unreadable file", []string{filepath.Join(dir, "missing.json")}, 1},
		{"rejected spec", []string{rejected}, 1},
		{"valid spec", []string{valid}, 0},
		{"valid spec as JSON", []string{"-json", valid}, 0},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: run(%q) = %d, want %d", tc.name, tc.args, got, tc.want)
		}
	}
}
