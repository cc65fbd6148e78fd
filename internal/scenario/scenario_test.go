package scenario

import (
	"os"
	"strings"
	"testing"

	"idio"
	fnet "idio/internal/net"
)

const validJSON = `{
  "name": "test",
  "policy": "IDIO",
  "cores": 2,
  "ringSize": 256,
  "mlcSizeKB": 256,
  "llcSizeKB": 768,
  "horizonMS": 9,
  "nfs": [
    {"core": 0, "app": "TouchDrop", "frameLen": 1514,
     "traffic": {"kind": "bursty", "gbps": 25, "packetsPerBurst": 256, "numBursts": 1}},
    {"core": 1, "app": "L2Fwd", "frameLen": 1024,
     "traffic": {"kind": "steady", "gbps": 5, "count": 512}}
  ]
}`

func TestLoadValidScenario(t *testing.T) {
	sc, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "test" || sc.Cores != 2 || len(sc.NFs) != 2 {
		t.Fatalf("parsed %+v", sc)
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	sc, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, cpi, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessed() != 256+512 {
		t.Fatalf("processed %d, want 768", res.TotalProcessed())
	}
	if cpi != 0 {
		t.Fatal("no antagonist configured")
	}
	// IDIO policy: self-invalidation ran.
	if res.Hier.SelfInval == 0 {
		t.Fatal("IDIO scenario must self-invalidate")
	}
}

func TestRunScenarioWithAntagonistAndInterrupts(t *testing.T) {
	doc := `{
	  "name": "co",
	  "policy": "DDIO",
	  "cores": 3,
	  "ringSize": 128,
	  "mlcSizeKB": 256,
	  "llcSizeKB": 768,
	  "driver": "interrupt",
	  "horizonMS": 9,
	  "nfs": [
	    {"core": 0, "app": "TouchDrop",
	     "traffic": {"kind": "steady", "gbps": 5, "count": 256}},
	    {"core": 1, "app": "L2FwdDropPayload",
	     "traffic": {"kind": "steady", "gbps": 5, "count": 256}}
	  ],
	  "antagonist": {"core": 2, "bufKB": 512, "mlcKB": 128}
	}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, cpi, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessed() != 512 {
		t.Fatalf("processed %d", res.TotalProcessed())
	}
	if cpi <= 0 {
		t.Fatalf("antagonist CPI %v", cpi)
	}
}

func TestLoadRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","cores":1,"horizonMS":1,"bogus":1,"nfs":[]}`,
		"no cores":          `{"name":"x","horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"bad policy":        `{"name":"x","policy":"MAGIC","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"no nfs":            `{"name":"x","cores":1,"horizonMS":1,"nfs":[]}`,
		"core out of range": `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":3,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"duplicate core":    `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}},{"core":0,"app":"L2Fwd","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"bad app":           `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"Nope","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"bad traffic kind":  `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"poisson","gbps":1}}]}`,
		"steady no count":   `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1}}]}`,
		"bursty no size":    `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"bursty","gbps":1}}]}`,
		"zero rate":         `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":0,"count":1}}]}`,
		"bad driver":        `{"name":"x","cores":1,"driver":"dpdk","horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
		"antagonist clash":  `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}],"antagonist":{"core":0,"bufKB":64}}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A negative numeric knob is an error naming the key, not a silent
	// fallback to the default.
	nf := `"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}]`
	topo := func(link, rpc string) string {
		return `,"topology":{"clients":1,"clientLink":{"gbps":100` + link + `},"serverLink":{"gbps":100},` +
			`"rpc":{"mode":"closed","outstanding":1,"requests":8` + rpc + `}}`
	}
	negatives := map[string]string{
		"ringSize":           `"ringSize":-5,` + nf + topo("", ""),
		"llcSizeKB":          `"llcSizeKB":-5,` + nf + topo("", ""),
		"mlcSizeKB":          `"mlcSizeKB":-5,` + nf + topo("", ""),
		"ddioWays":           `"ddioWays":-5,` + nf + topo("", ""),
		"clientLink queue":   nf + topo(`,"queue":-5`, ""),
		"clientLink delayUS": nf + topo(`,"delayUS":-5`, ""),
		"rpc timeoutUS":      nf + topo("", `,"timeoutUS":-5`),
		"frameLen":           `"nfs":[{"core":0,"app":"L2Fwd","frameLen":-5,"traffic":{}}]` + topo("", ""),
		"antagonist mlcKB":   `"cores":2,"antagonist":{"core":1,"bufKB":64,"mlcKB":-5},` + nf + topo("", ""),
	}
	// A removed key or value is an error naming it, not a silent
	// default.
	removed := map[string]string{
		"hedgeUS":       nf + topo("", `,"retry":{"maxRetries":1,"hedgeUS":5}`),
		"rampToGbps":    nf + topo("", `,"rampToGbps":5`),
		`"ramp"`:        nf + strings.Replace(topo("", `,"gbps":1`), `"closed"`, `"ramp"`, 1),
		`"CopyNF"`:      `"nfs":[{"core":0,"app":"CopyNF","traffic":{"kind":"steady","gbps":1,"count":1}}]`,
		`"L2FwdQueued"`: `"nfs":[{"core":0,"app":"L2FwdQueued","traffic":{"kind":"steady","gbps":1,"count":1}}]`,
	}
	for key, body := range removed {
		_, err := Load(strings.NewReader(`{"name":"x","cores":1,"horizonMS":1,` + body + `}`))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("removed %s: got %v, want an error naming it", key, err)
		}
	}
	for key, body := range negatives {
		doc := `{"name":"x","cores":1,"horizonMS":1,` + body + `}`
		if strings.Contains(body, `"cores":2`) {
			doc = `{"name":"x","horizonMS":1,` + body + `}`
		}
		_, err := Load(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), key+" -5") {
			t.Errorf("negative %s: got %v, want an error naming it", key, err)
		}
	}
}

// An unknown app name is an error that lists the names a scenario may
// give.
func TestUnknownAppListsAppNames(t *testing.T) {
	_, err := Load(strings.NewReader(`{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"Nope","traffic":{"kind":"steady","gbps":1,"count":1}}]}`))
	if err == nil {
		t.Fatal("unknown app loaded")
	}
	for _, name := range AppNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestShippedScenarioFileIsValid(t *testing.T) {
	f, err := os.Open("../../scenarios/mixed_nfs.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "mixed-nfs" || len(sc.NFs) != 3 {
		t.Fatalf("shipped scenario parsed as %+v", sc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sc, err := Load(strings.NewReader(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-load of saved scenario: %v\n%s", err, buf.String())
	}
	if back.Name != sc.Name || back.Policy != sc.Policy || len(back.NFs) != len(sc.NFs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, sc)
	}
	for i := range sc.NFs {
		if back.NFs[i] != sc.NFs[i] {
			t.Fatalf("nf %d mismatch: %+v vs %+v", i, back.NFs[i], sc.NFs[i])
		}
	}
}

func TestReallocScenarioRuns(t *testing.T) {
	doc := `{
	  "name": "m2",
	  "policy": "IDIO",
	  "cores": 1,
	  "ringSize": 128,
	  "mlcSizeKB": 256,
	  "llcSizeKB": 768,
	  "horizonMS": 9,
	  "nfs": [{"core": 0, "app": "ReallocNF",
	           "traffic": {"kind": "steady", "gbps": 5, "count": 200}}]
	}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessed() != 200 {
		t.Fatalf("processed %d", res.TotalProcessed())
	}
}

// topologyJSON is a closed-loop RPC topology: 2 L2Fwd cores with no
// generator traffic, 2 clients driving requests through the fabric.
const topologyJSON = `{
  "name": "topo",
  "policy": "IDIO",
  "cores": 2,
  "ringSize": 256,
  "mlcSizeKB": 256,
  "llcSizeKB": 768,
  "horizonMS": 20,
  "nfs": [
    {"core": 0, "app": "L2Fwd", "traffic": {}},
    {"core": 1, "app": "L2Fwd", "traffic": {}}
  ],
  "topology": {
    "clients": 2,
    "clientLink": {"gbps": 100, "delayUS": 2},
    "serverLink": {"gbps": 100, "delayUS": 2},
    "rpc": {"mode": "closed", "outstanding": 8, "requests": 256}
  }
}`

func TestTopologyScenarioRuns(t *testing.T) {
	sc, err := Load(strings.NewReader(topologyJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.RPC == nil || res.Fabric == nil {
		t.Fatal("topology run must report RPC and Fabric sections")
	}
	const want = 2 * 256
	if res.RPC.Issued != want || res.RPC.Responses != want {
		t.Fatalf("rpc issued=%d responses=%d, want %d each", res.RPC.Issued, res.RPC.Responses, want)
	}
	if res.TotalProcessed() != want {
		t.Fatalf("DUT processed %d, want %d (every request served)", res.TotalProcessed(), want)
	}
}

// TestTopologyGeneratorTraffic: generator flows route through the
// fabric (client uplink -> switch -> server link -> NIC) instead of
// direct injection when a topology is present.
func TestTopologyGeneratorTraffic(t *testing.T) {
	doc := `{
	  "name": "topo-gen",
	  "policy": "DDIO",
	  "cores": 1,
	  "ringSize": 256,
	  "mlcSizeKB": 256,
	  "llcSizeKB": 768,
	  "horizonMS": 20,
	  "nfs": [
	    {"core": 0, "app": "TouchDrop", "traffic": {"kind": "steady", "gbps": 5, "count": 512}}
	  ],
	  "topology": {
	    "clients": 1,
	    "clientLink": {"gbps": 100, "delayUS": 2},
	    "serverLink": {"gbps": 100, "delayUS": 2}
	  }
	}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProcessed() != 512 {
		t.Fatalf("processed %d, want 512", res.TotalProcessed())
	}
	if res.Fabric == nil {
		t.Fatal("topology run must report fabric stats")
	}
	// Requests crossed the switch once each; TouchDrop sends nothing
	// back.
	if res.Fabric.Switch.Forwarded != 512 {
		t.Fatalf("switch forwarded %d, want 512", res.Fabric.Switch.Forwarded)
	}
}

func TestTopologyValidation(t *testing.T) {
	cases := map[string]string{
		"no clients":        `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{"kind":"steady","gbps":1,"count":1}}],"topology":{"clientLink":{"gbps":100},"serverLink":{"gbps":100}}}`,
		"zero link rate":    `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{"kind":"steady","gbps":1,"count":1}}],"topology":{"clients":1,"clientLink":{"gbps":0},"serverLink":{"gbps":100}}}`,
		"rpc no requests":   `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},"rpc":{"mode":"closed","outstanding":1}}}`,
		"rpc bad mode":      `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},"rpc":{"mode":"turbo","requests":1}}}`,
		"open no gbps":      `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},"rpc":{"mode":"open","requests":1}}}`,
		"closed no window":  `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},"rpc":{"mode":"closed","requests":1}}}`,
		"no traffic no rpc": `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100}}}`,
		"negative delay":    negativeDelayJSON,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestChurnValidation rejects churn knobs that the client cannot
// represent — a flow budget past its uint32 counter, a wheel past
// 1<<20 slots — with an error from Load, not a panic or a giant
// allocation at run time.
func TestChurnValidation(t *testing.T) {
	doc := func(extra string) string {
		return `{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],` +
			`"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},` +
			`"churn":{"flows":16,"requests":64` + extra + `}}}`
	}
	if _, err := Load(strings.NewReader(doc(`,"sizeMax":4294967295,"wheelSlots":1048576`))); err != nil {
		t.Fatalf("largest legal sizeMax/wheelSlots rejected: %v", err)
	}
	cases := []struct {
		name   string
		extra  string
		substr string
	}{
		{"sizeMax truncates", `,"sizeMax":4294967296`, "SizeMax 4294967296 exceeds"},
		{"sizeMax truncates to zero budget", `,"sizeMax":8589934592`, "SizeMax 8589934592 exceeds"},
		{"huge wheel", `,"wheelSlots":1048577`, "WheelSlots 1048577 exceeds"},
		{"multi-GiB wheel", `,"wheelSlots":2000000000`, "WheelSlots 2000000000 exceeds"},
	}
	for _, tc := range cases {
		_, err := Load(strings.NewReader(doc(tc.extra)))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

func TestShippedRPCScenarioRuns(t *testing.T) {
	f, err := os.Open("../../scenarios/rpc_closed_loop.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Topology == nil || sc.Topology.RPC == nil {
		t.Fatal("shipped rpc scenario needs a topology rpc section")
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(sc.Topology.Clients) * sc.Topology.RPC.Requests
	if res.RPC == nil || res.RPC.Responses != want {
		t.Fatalf("shipped scenario responses: got %+v, want %d", res.RPC, want)
	}
}

// A Scenario built in Go skips Load's Validate; Compile must still
// refuse an rpc mode it cannot map rather than run it open-loop.
func TestCompileRejectsUnknownRPCMode(t *testing.T) {
	f, err := os.Open("../../scenarios/rpc_closed_loop.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rpc := *sc.Topology.RPC
	rpc.Mode = "Closed"
	topo := *sc.Topology
	topo.RPC = &rpc
	sc.Topology = &topo
	if _, err := sc.Compile(); err == nil || !strings.Contains(err.Error(), `unknown rpc mode "Closed"`) {
		t.Fatalf("Compile with mode Closed: err = %v", err)
	}
	if _, _, err := Run(sc); err == nil {
		t.Fatal("Run with mode Closed must fail")
	}
}

// chaosJSON is the resilience kitchen sink: AQM on every hop, retrying
// clients, DUT admission control, and a two-phase fault timeline.
const chaosJSON = `{
  "name": "chaos",
  "policy": "IDIO",
  "cores": 2,
  "ringSize": 256,
  "mlcSizeKB": 256,
  "llcSizeKB": 768,
  "horizonMS": 20,
  "admissionWatermark": 32,
  "nfs": [
    {"core": 0, "app": "L2Fwd", "traffic": {}},
    {"core": 1, "app": "L2Fwd", "traffic": {}}
  ],
  "topology": {
    "clients": 2,
    "clientLink": {"gbps": 100, "delayUS": 2, "aqmTargetUS": 20},
    "serverLink": {"gbps": 100, "delayUS": 2, "aqmTargetUS": 20},
    "rpc": {"mode": "closed", "outstanding": 8, "requests": 4096, "timeoutUS": 200,
            "retry": {"maxRetries": 2, "backoffUS": 50, "jitterFrac": 0.25, "seed": 7}}
  },
  "chaos": [
    {"layer": "fabric", "kind": "degrade", "startMS": 1, "durationMS": 0.5, "magnitude": 0.1, "target": 0},
    {"layer": "core", "kind": "stall", "startMS": 2, "durationMS": 0.3, "target": 1}
  ]
}`

// TestChaosScenarioRuns: the chaos sections load, the run completes
// its full budget despite the injected phases (retries recover the
// losses), and the timeline is accounted.
func TestChaosScenarioRuns(t *testing.T) {
	sc, err := Load(strings.NewReader(chaosJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Chaos) != 2 || sc.AdmissionWatermark != 32 || sc.Topology.RPC.Retry == nil {
		t.Fatalf("chaos sections lost in parse: %+v", sc)
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TimelinePhases != 2 {
		t.Fatalf("timeline phases not applied: %+v", res.Faults)
	}
	if res.RPC == nil || res.RPC.Issued != 2*4096 {
		t.Fatalf("rpc budget incomplete: %+v", res.RPC)
	}
	// Retrying clients recover everything the faults cost.
	if got := res.RPC.Responses + res.RPC.Failed; got != 2*4096 {
		t.Fatalf("responses %d + failed %d != issued %d", res.RPC.Responses, res.RPC.Failed, res.RPC.Issued)
	}
}

// TestChaosScenarioRoundTrip: Save/Load preserves the resilience
// sections bit-for-bit.
func TestChaosScenarioRoundTrip(t *testing.T) {
	sc, err := Load(strings.NewReader(chaosJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("re-load: %v\n%s", err, buf.String())
	}
	if len(back.Chaos) != len(sc.Chaos) || back.Chaos[0] != sc.Chaos[0] ||
		back.AdmissionWatermark != sc.AdmissionWatermark ||
		*back.Topology.RPC.Retry != *sc.Topology.RPC.Retry {
		t.Fatalf("round trip lost chaos sections:\n%+v\nvs\n%+v", back, sc)
	}
}

// TestChaosValidation rejects every malformed resilience section with
// a message naming the offender.
func TestChaosValidation(t *testing.T) {
	// base builds a minimal valid topology scenario with the given
	// extra top-level JSON spliced in.
	base := func(extra string) string {
		return `{"name":"x","cores":1,"horizonMS":1,` + extra +
			`"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],` +
			`"topology":{"clients":1,"clientLink":{"gbps":100},"serverLink":{"gbps":100},` +
			`"rpc":{"mode":"closed","outstanding":1,"requests":8`
	}
	cases := []struct {
		name   string
		doc    string
		substr string
	}{
		{"negative admission watermark",
			base(`"admissionWatermark":-1,`) + `}}}`,
			"admissionWatermark must be >= 0"},
		{"negative AQM target",
			`{"name":"x","cores":1,"horizonMS":1,"nfs":[{"core":0,"app":"L2Fwd","traffic":{}}],"topology":{"clients":1,"clientLink":{"gbps":100,"aqmTargetUS":-1},"serverLink":{"gbps":100},"rpc":{"mode":"closed","outstanding":1,"requests":8}}}`,
			"AQM target/interval"},
		{"bad retry",
			base(``) + `,"retry":{"maxRetries":-1}}}}`,
			"rpc retry"},
		{"retry jitter out of range",
			base(``) + `,"retry":{"maxRetries":1,"jitterFrac":1.5}}}}`,
			"JitterFrac"},
		{"chaos unknown kind",
			base(`"chaos":[{"layer":"fabric","kind":"melt","startMS":1,"durationMS":1}],`) + `}}}`,
			"unknown layer/kind"},
		{"chaos negative duration",
			base(`"chaos":[{"layer":"nic","kind":"dma-stall","startMS":1,"durationMS":-1}],`) + `}}}`,
			"must be positive"},
		{"chaos overlap same target",
			base(`"chaos":[{"layer":"fabric","kind":"down","startMS":1,"durationMS":2},{"layer":"fabric","kind":"down","startMS":2,"durationMS":2}],`) + `}}}`,
			"overlaps"},
		{"chaos core target out of range",
			base(`"chaos":[{"layer":"core","kind":"stall","startMS":1,"durationMS":1,"target":5}],`) + `}}}`,
			"core target 5 runs no NF"},
		{"chaos core target without an NF",
			`{"name":"x","cores":2,"horizonMS":1,"chaos":[{"layer":"core","kind":"stall","startMS":1,"durationMS":1,"target":0}],"nfs":[{"core":1,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
			"core target 0 runs no NF"},
		{"chaos nic target out of range",
			base(`"chaos":[{"layer":"nic","kind":"dma-stall","startMS":1,"durationMS":1,"target":1}],`) + `}}}`,
			"chaos[0] nic target 1 out of range"},
		{"chaos fabric needs topology",
			`{"name":"x","cores":1,"horizonMS":1,"chaos":[{"layer":"fabric","kind":"down","startMS":1,"durationMS":1}],"nfs":[{"core":0,"app":"TouchDrop","traffic":{"kind":"steady","gbps":1,"count":1}}]}`,
			"no topology"},
	}
	shipped, err := os.ReadFile("../../scenarios/chaos_recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	retargeted := strings.Replace(string(shipped), `"magnitude": 0.02, "target": 0`, `"magnitude": 0.02, "target": 40`, 1)
	if retargeted == string(shipped) {
		t.Fatal("chaos_recovery.json has no fabric/degrade phase to retarget")
	}
	cases = append(cases, struct {
		name   string
		doc    string
		substr string
	}{"chaos fabric target past the attached links", retargeted, "chaos[0] fabric target 40 out of range"})
	for _, tc := range cases {
		_, err := Load(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.substr)
		}
	}
}

// TestShippedChaosScenarioRuns: the shipped chaos_recovery.json is
// valid and drives a run whose timeline fully applies.
func TestShippedChaosScenarioRuns(t *testing.T) {
	f, err := os.Open("../../scenarios/chaos_recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Chaos) != 4 || sc.Topology == nil || sc.Topology.RPC.Retry == nil {
		t.Fatalf("shipped chaos scenario parsed as %+v", sc)
	}
	res, _, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.TimelinePhases != 4 {
		t.Fatalf("shipped timeline applied %v phases, want 4", res.Faults)
	}
	if res.RPC == nil || res.RPC.Responses == 0 || res.RPC.Retries == 0 {
		t.Fatalf("shipped chaos run degenerate: %+v", res.RPC)
	}
}

// TestBuildRejectsClientsWithoutSlots: Build refuses clients that have
// no fabric slot to run on, and a mix of RPC and churn clients.
func TestBuildRejectsClientsWithoutSlots(t *testing.T) {
	fabric := &Fabric{Clients: 1, ClientLink: fnet.LinkConfig{RateBps: 1e9}, ServerLink: fnet.LinkConfig{RateBps: 1e9}}
	for name, d := range map[string]Desc{
		"no fabric":      {Host: idio.DefaultConfig(1), RPC: []RPCClient{{}}},
		"too few slots":  {Host: idio.DefaultConfig(1), Fabric: fabric, RPC: []RPCClient{{}, {}}},
		"rpc with churn": {Host: idio.DefaultConfig(1), Fabric: fabric, RPC: []RPCClient{{}}, Churn: []fnet.ChurnConfig{{}}},
	} {
		if _, err := Build(d); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}
