package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsAnswerCorrectly runs every workload end to end at a tiny
// stream length, then replays it traced.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, err := generate(name, 7, 6)
			if err != nil {
				t.Fatal(err)
			}
			defer s.mem.free()
			if _, err := fillOnce(s); err != nil {
				t.Fatal(err)
			}
			tm, err := runTimed(s, 1, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			chk := check(s, tm)
			tm.mem.free()
			if len(tm.lat) == 0 || chk.ok != len(tm.lat) {
				t.Fatalf("ok %d of %d timed requests; first failure: %s", chk.ok, len(tm.lat), chk.first)
			}
			if s.passes && tm.passes < 2 {
				t.Errorf("%d pass(es) in 300ms of a stream of %d requests, want several", tm.passes, len(s.reqs))
			}
			run, err := startReplay(s, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3 && !run.cur.done(); k++ {
				if err := run.step(); err != nil {
					t.Fatal(err)
				}
			}
			m := layerMetrics(io.Discard, run)
			hit := m["riskcache.hit_share"].Value
			if want := map[bool]float64{true: 1, false: 0}[name == retailHot]; hit != want {
				t.Errorf("riskcache.hit_share %v, want %v", hit, want)
			}
			search := m["recipe.search_share"].Value
			if want := map[bool]float64{true: 1, false: 0}[name == pumsbCold]; search != want {
				t.Errorf("recipe.search_share %v, want %v", search, want)
			}
		})
	}
}

func TestWorkloadDigest(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 4)
		c, _ := generate(name, 8, 4)
		a.mem.free()
		b.mem.free()
		c.mem.free()
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", name)
		}
	}
}

// TestResultMatchesBenchmarkJSON checks that both modes print exactly the
// metrics BENCHMARK.json declares, with their units.
func TestResultMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs retail_hot for two seconds")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]decl{spec.EndToEnd, spec.PerLayer} {
		var out bytes.Buffer
		if err := run(&out, retailHot, 7, 1, trace, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct %t, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range want {
			exp = append(exp, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace %d metrics\n got %v\nwant %v", trace, got, exp)
		}
	}
}
