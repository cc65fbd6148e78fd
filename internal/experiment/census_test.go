package experiment

import (
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"idio"
	"idio/internal/scenario"
)

// censusAllow lists the settable values that no catalogue cell and no
// shipped scenario sets, each with the kind of reason that keeps it:
// (a) a caller the census cannot walk sets it, (b) it is a test seam,
// (c) it is a numeric parameter whose zero selects a documented
// default and opens no code path of its own, (d) deleting it would
// move goldens beyond its own.
var censusAllow = map[string]string{
	"core.PrefetcherConfig.Backoff":         "(c) 0 waits 8x IssueInterval",
	"core.PrefetcherConfig.HighWater":       "(c) 0 pauses above 0.6 MLC load",
	"cpu.Config.Driver":                     "(a) examples/interruptmode selects DriverInterrupt",
	"fault.Phase.Target":                    "(c) the victim, a link index or a core id; 0 is the first link or core 0, and every value takes one path",
	"hier.Config.MLCSizePerCore":            "(a) scenario.Build sets it from Antagonist.MLCKB; examples/isolation sets it",
	"idio.ClusterConfig.Shards":             "(a) simbench sets it (rpc_fanin_sharded); ROADMAP item 2 retires it",
	"net.ChurnConfig.ArrivalGap":            "(c) 0 uses Think",
	"net.ChurnConfig.DstPorts":              "(c) 0 uses one port",
	"net.ChurnConfig.MiceFrac":              "(c) 0 uses 0.9",
	"net.ChurnConfig.MiceMax":               "(c) 0 uses 8",
	"net.ChurnConfig.SizeMax":               "(c) 0 uses 128",
	"net.ChurnConfig.SizeZipfS":             "(c) 0 uses 1.2",
	"net.ChurnConfig.SrcPorts":              "(c) 0 uses 16384",
	"net.ChurnConfig.Start":                 "(c) 0 starts the population at time 0",
	"net.ChurnConfig.WheelGran":             "(c) 0 uses 64 us",
	"net.ChurnConfig.WheelSlots":            "(c) 0 derives the slot count from the longest mean deadline",
	"net.ClientConfig.Start":                "(a) simbench sets it (seeded client starts in rpc_fanin)",
	"net.LinkConfig.Name":                   "(a) idio.NewCluster names every link by its slot",
	"net.LinkConfig.QueueDepth":             "(c) 0 uses 256 packets",
	"obs.Config.MetricsInterval":            "(a) the idiosim -metrics-interval flag sets it",
	"qos.Config.Quantum":                    "(c) 0 uses 2048 bytes",
	"sim.WatchdogConfig.MaxProcessedEvents": "(b) FuzzScenario and TestWatchdogSurfacesInResults bound a run's events with it",
	"traffic.Flow.Dst":                      "(a) scenario.Build gives every generator System.DefaultFlow or Cluster.ClientFlow; examples/multiflow sets it",
	"traffic.Flow.DstPort":                  "(a) scenario.Build gives every generator System.DefaultFlow or Cluster.ClientFlow; examples/multiflow sets it",
	"traffic.Flow.Src":                      "(a) scenario.Build gives every generator System.DefaultFlow or Cluster.ClientFlow; examples/multiflow sets it",
	"traffic.Flow.SrcPort":                  "(a) scenario.Build gives every generator System.DefaultFlow or Cluster.ClientFlow; examples/multiflow sets it",
	"traffic.Steady.Pool":                   "(b) TestNullPoolByteIdentical injects a null pool through it",
	"traffic.Bursty.Start":                  "(c) 0 starts the first burst at time 0",
	"traffic.Steady.Start":                  "(c) 0 starts the stream at time 0",
	"traffic.Steady.Stop":                   "(a) examples/isolation bounds its stream by Stop",
}

// TestSettableValuesHaveRuns walks every field of every run's
// scenario.Desc, the catalogue's cells at both scales and every
// shipped scenario, and fails on a field that is zero in all of them
// and not in censusAllow: a knob nothing runs is a code path no figure
// checks.
func TestSettableValuesHaveRuns(t *testing.T) {
	var c census
	for _, d := range censusDescs(t) {
		c.walk(reflect.ValueOf(d), "Desc")
		if f := d.Fabric; f != nil {
			// The cluster Build makes: ClusterConfig is reachable from
			// Desc only through it.
			cc := idio.ClusterConfig{Host: d.Host, Clients: f.Clients, ClientLink: f.ClientLink, ServerLink: f.ServerLink}
			c.walk(reflect.ValueOf(cc), "ClusterConfig")
		}
	}
	reason := regexp.MustCompile(`^\([a-d]\) \S`)
	var orphans []string
	for _, k := range c.keys {
		why, allowed := censusAllow[k]
		switch {
		case c.set[k] && allowed:
			t.Errorf("%s is set by a run; drop it from censusAllow", k)
		case allowed && !reason.MatchString(why):
			t.Errorf("censusAllow[%s] = %q: want an (a)-(d) reason", k, why)
		case !c.set[k] && !allowed:
			orphans = append(orphans, k+"  ("+c.path[k]+")")
		}
	}
	for k := range censusAllow {
		if _, seen := c.path[k]; !seen {
			t.Errorf("censusAllow names %s, which no run reaches", k)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("%d settable values are zero in every run (give each a run, delete it, or allow it with a reason):\n  %s",
			len(orphans), strings.Join(orphans, "\n  "))
	}
}

// TestAppNamesHaveRuns fails on an app name that no run's NFDesc.App
// uses. An app is named by a string, so the field walk above sees only
// that some run sets App, not which apps run.
func TestAppNamesHaveRuns(t *testing.T) {
	used := map[string]bool{}
	for _, d := range censusDescs(t) {
		for _, nf := range d.NFs {
			used[nf.App] = true
		}
	}
	var orphans []string
	for _, name := range scenario.AppNames() {
		if !used[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("%d app names run in no catalogue cell or shipped scenario (give each a run or delete it): %s",
			len(orphans), strings.Join(orphans, ", "))
	}
}

// censusDescs returns the Desc of every catalogue cell (and hidden
// reference cell) at both scales, of every scenarios/*.json, and of
// the rpc entry's cells swept from each scenario with an rpc section.
func censusDescs(t *testing.T) []scenario.Desc {
	t.Helper()
	var descs []scenario.Desc
	add := func(cells []*cell) {
		for _, c := range cells {
			descs = append(descs, c.desc)
			if c.ref != nil {
				descs = append(descs, c.ref.desc)
			}
		}
	}
	for _, quick := range []bool{true, false} {
		for _, s := range Catalogue {
			cells, err := s.cells(Env{Quick: quick})
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			add(cells)
		}
	}
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	rpc, _ := Lookup("rpc")
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := scenario.Load(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		d, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		descs = append(descs, d)
		if len(d.RPC) > 0 {
			for _, quick := range []bool{true, false} {
				cells, err := rpc.cells(Env{Quick: quick, Base: &d})
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				add(cells)
			}
		}
	}
	return descs
}

// census records, per field of a config type ("net.RetryConfig.Hedge"),
// whether any run sets it and the first path that reached it.
type census struct {
	keys []string
	set  map[string]bool
	path map[string]string
}

// configType reports whether t is a struct the census walks into: one
// declared in this module, outside internal/stats (a histogram is a
// probe, not a setting).
func configType(t reflect.Type) bool {
	p := t.PkgPath()
	return t.Kind() == reflect.Struct && (p == "idio" || strings.HasPrefix(p, "idio/internal/")) && p != "idio/internal/stats"
}

// elem is the config struct a field of type t leads the walk into,
// through pointers, slices and arrays, or nil.
func elem(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice || t.Kind() == reflect.Array {
		t = t.Elem()
	}
	if configType(t) {
		return t
	}
	return nil
}

func (c *census) walk(v reflect.Value, at string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			c.walk(v.Elem(), at)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.walk(v.Index(i), at+"[]")
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fv := v.Field(i)
			sub := elem(f.Type)
			if sub != nil && f.Type.Kind() == reflect.Struct {
				// A struct value is judged by its own fields.
				c.walk(fv, at+"."+f.Name)
				continue
			}
			c.note(path.Base(t.PkgPath())+"."+t.Name()+"."+f.Name, at+"."+f.Name, !fv.IsZero())
			if sub != nil {
				c.walk(fv, at+"."+f.Name)
			}
		}
	}
}

func (c *census) note(key, at string, set bool) {
	if c.set == nil {
		c.set, c.path = map[string]bool{}, map[string]string{}
	}
	if _, seen := c.path[key]; !seen {
		c.path[key] = at
		i, _ := slices.BinarySearch(c.keys, key)
		c.keys = slices.Insert(c.keys, i, key)
	}
	c.set[key] = c.set[key] || set
}
