package core

import (
	"encoding/json"
	"testing"

	"repro/internal/expr"
)

func TestInventoryJSON(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.InventoryJSON()
	if err != nil {
		t.Fatal(err)
	}
	var comps []ComponentJSON
	if err := json.Unmarshal(data, &comps); err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(a.Components) {
		t.Fatalf("%d components in JSON, %d in analysis", len(comps), len(a.Components))
	}
	kinds := map[string]int{}
	for _, c := range comps {
		kinds[c.Kind]++
		if c.Site == "" || c.Count == "" || c.SD == "" {
			t.Errorf("incomplete component %+v", c)
		}
	}
	if kinds["first-touch"] != 3 || kinds["self"] == 0 {
		t.Errorf("kinds %v", kinds)
	}
}

func TestReportToJSON(t *testing.T) {
	nest := imperfectNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 12}
	rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 16)
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.ReportToJSON(env, rep)
	if err != nil {
		t.Fatal(err)
	}
	var r ReportJSON
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Misses != rep.Total || r.Accesses != rep.Accesses || r.CacheElems != 16 {
		t.Fatalf("round-trip mismatch: %+v vs %+v", r, rep)
	}
	var sum int64
	for _, c := range r.Components {
		sum += c.MissValue
	}
	if sum != r.Misses {
		t.Errorf("component misses sum %d != total %d", sum, r.Misses)
	}
	// Cross components carry their source.
	foundCross := false
	for _, c := range r.Components {
		if c.Kind == "cross" {
			foundCross = true
			if c.Source == "" {
				t.Errorf("cross component without source: %+v", c)
			}
		}
	}
	if !foundCross {
		t.Error("no cross component serialized")
	}
}
