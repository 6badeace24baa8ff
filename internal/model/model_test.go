package model

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/predict"
)

func TestRegistryContents(t *testing.T) {
	want := []struct {
		name string
		tier Tier
	}{
		{"native-ds10l", TierDetailed},
		{"sim-initial", TierDetailed},
		{"sim-alpha", TierDetailed},
		{"sim-stripped", TierDetailed},
		{"sim-outorder", TierSimplified},
		{"sim-inorder", TierSimplified},
		{"sim-interval", TierAnalytical},
		{"sim-alpha-ddr", TierDetailed},
		{"sim-interval-ddr", TierAnalytical},
	}
	got := Backends()
	if len(got) != len(want) {
		t.Fatalf("registry has %d backends, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name {
			t.Errorf("backend %d: name %q, want %q", i, got[i].Name, w.name)
		}
		if got[i].Tier != w.tier {
			t.Errorf("%s: tier %q, want %q", w.name, got[i].Tier, w.tier)
		}
		if got[i].Config == nil {
			t.Errorf("%s: nil Config", w.name)
		}
		if got[i].Description == "" {
			t.Errorf("%s: empty description", w.name)
		}
	}
}

func TestNamesMatchMachines(t *testing.T) {
	for _, d := range Backends() {
		if got := d.New().Name(); got != d.Name {
			t.Errorf("descriptor %q constructs machine named %q", d.Name, got)
		}
	}
}

// TestCapabilitiesMatchAssertions checks every backend's discovered
// flags against direct interface assertions on a fresh machine — the
// registry must never diverge from what the types implement.
func TestCapabilitiesMatchAssertions(t *testing.T) {
	for _, d := range Backends() {
		m := d.New()
		_, ckpt := m.(core.CheckpointRecorder)
		_, smpl := m.(core.SampleCapable)
		_, stack := m.(core.StackCapable)
		caps := d.Capabilities()
		if caps.Checkpointable != ckpt || caps.Samplable != smpl || caps.CPIStack != stack {
			t.Errorf("%s: Capabilities() %+v, assertions ckpt=%v smpl=%v stack=%v",
				d.Name, caps, ckpt, smpl, stack)
		}
	}
}

func TestExpectedCapabilities(t *testing.T) {
	want := map[string]Capabilities{
		"native-ds10l":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-initial":      {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-alpha":        {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-stripped":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-outorder":     {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-inorder":      {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-interval":     {Checkpointable: false, Samplable: false, CPIStack: true},
		"sim-alpha-ddr":    {Checkpointable: true, Samplable: true, CPIStack: true},
		"sim-interval-ddr": {Checkpointable: false, Samplable: false, CPIStack: true},
	}
	for _, d := range Backends() {
		if got, w := d.Capabilities(), want[d.Name]; got != w {
			t.Errorf("%s: capabilities %+v, want %+v", d.Name, got, w)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	exact, err := ByName("sim-interval")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := ByName("interval")
	if err != nil {
		t.Fatalf("bare alias: %v", err)
	}
	if exact.Name != bare.Name {
		t.Errorf("alias resolved to %q, want %q", bare.Name, exact.Name)
	}
}

func TestUnknownBackend(t *testing.T) {
	_, err := ByName("sim-nonesuch")
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("error %v does not wrap ErrUnknownBackend", err)
	}
	if !strings.Contains(err.Error(), "sim-alpha") {
		t.Errorf("error %q does not list available backends", err)
	}
	if _, err := New("sim-nonesuch"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("New: error %v does not wrap ErrUnknownBackend", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mk := func() core.Machine { return MustNew("sim-alpha") }
	expectPanic("empty name", Descriptor{Tier: TierDetailed, New: mk})
	expectPanic("duplicate", Descriptor{Name: "sim-alpha", Tier: TierDetailed, New: mk})
	expectPanic("bad tier", Descriptor{Name: "sim-x", Tier: Tier("exact"), New: mk})
	expectPanic("nil constructor", Descriptor{Name: "sim-y", Tier: TierDetailed})
}

func TestBuild(t *testing.T) {
	for _, cfg := range []any{
		DefaultAlphaConfig(),
		SimInitialConfig(),
		DefaultRUUConfig(),
		DefaultInorderConfig(),
		DefaultIntervalConfig(),
		SimAlphaDDRConfig(),
		SimIntervalDDRConfig(),
		RUUDDRConfig{Core: DefaultRUUConfig(), DDR: DefaultDDRConfig()},
		InorderDDRConfig{Core: DefaultInorderConfig(), DDR: DefaultDDRConfig()},
	} {
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%T): %v", cfg, err)
		}
		if m == nil {
			t.Fatalf("Build(%T): nil machine", cfg)
		}
	}
	if _, err := Build(struct{ X int }{1}); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("Build on unknown config type: %v does not wrap ErrUnknownBackend", err)
	}
	bad := DefaultAlphaConfig()
	bad.FetchWidth = 0
	if _, err := Build(bad); err == nil {
		t.Error("Build accepted a config failing Check")
	}
	badDDR := SimAlphaDDRConfig()
	badDDR.DDR.RowPolicy = "lru"
	if _, err := Build(badDDR); err == nil {
		t.Error("Build accepted a DDR config failing Check")
	}
}

func TestRegisteredConfigsBuild(t *testing.T) {
	for _, d := range Backends() {
		if d.Name == "native-ds10l" {
			continue // composite identity, constructed only via New
		}
		if _, err := Build(d.Config); err != nil {
			t.Errorf("%s: registered config does not Build: %v", d.Name, err)
		}
	}
}

// compatOf recomputes a configuration's checkpoint compat tag the way
// each checkpointable family defines it: the warm-relevant part of the
// configuration, fingerprinted and hashed. ok is false for a
// configuration type with no definition here.
func compatOf(cfg any) (tag string, ok bool) {
	hash := func(v any) string { return checkpoint.Hash([]byte(fingerprint.Of(v))) }
	switch c := cfg.(type) {
	case nativeIdentity:
		return compatOf(c.Model)
	case AlphaDDRConfig:
		return compatOf(c.Core)
	case RUUDDRConfig:
		return compatOf(c.Core)
	case InorderDDRConfig:
		return compatOf(c.Core)
	case AlphaConfig:
		return hash(struct {
			Hier   cache.HierarchyConfig
			Tour   predict.TournamentConfig
			Mapper string
		}{c.Hier, c.Tour, c.NewMapper().Name()}), true
	case RUUConfig:
		return hash(struct {
			Hier   cache.HierarchyConfig
			Mapper string
		}{c.Hier, c.NewMapper().Name()}), true
	case InorderConfig:
		return hash(struct {
			Hier        cache.HierarchyConfig
			BimodalBits int
			Mapper      string
		}{c.Hier, c.BimodalBits, c.NewMapper().Name()}), true
	}
	return "", false
}

// TestCompatCachedMatchesComputation checks that every checkpointable
// backend's Compat, computed once per machine and then kept, is the
// tag its configuration defines, both for the registered constructor
// and for a machine built from the registered configuration — on
// first use and on a later one.
func TestCompatCachedMatchesComputation(t *testing.T) {
	for _, d := range Backends() {
		if !d.Capabilities().Checkpointable {
			continue
		}
		want, ok := compatOf(d.Config)
		if !ok {
			t.Errorf("%s: no compat definition for config type %T", d.Name, d.Config)
			continue
		}
		m := d.New().(core.WarmMachine)
		for i := 0; i < 2; i++ {
			if got := m.Compat(); got != want {
				t.Errorf("%s: Compat() call %d = %s, want %s", d.Name, i, got, want)
			}
		}
		if d.Name == "native-ds10l" {
			continue // composite identity, constructed only via New
		}
		built, err := Build(d.Config)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if got := built.(core.WarmMachine).Compat(); got != want {
			t.Errorf("%s: built Compat() = %s, want %s", d.Name, got, want)
		}
	}
}
