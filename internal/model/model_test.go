package model

import (
	"errors"
	"fmt"
	"reflect"
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

// TestCapabilitiesMatchAssertions checks every backend's stored flags,
// as Backends and ByName return them, against direct interface
// assertions on a fresh machine — the registry must never diverge
// from what the types implement.
func TestCapabilitiesMatchAssertions(t *testing.T) {
	for _, d := range Backends() {
		m := d.New()
		_, ckpt := m.(core.CheckpointRecorder)
		_, smpl := m.(core.SampleCapable)
		_, stack := m.(core.StackCapable)
		want := Capabilities{Checkpointable: ckpt, Samplable: smpl, CPIStack: stack}
		byName, err := ByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, caps := range []Capabilities{d.Capabilities(), byName.Capabilities()} {
			if caps != want {
				t.Errorf("%s: Capabilities() %+v, assertions %+v", d.Name, caps, want)
			}
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
			Hier       cache.HierarchyConfig
			Tour       predict.TournamentConfig
			IPrefetch  bool
			FetchWidth int
		}{c.Hier, c.Tour, c.Feat.IPrefetch, c.FetchWidth}), true
	case RUUConfig:
		return hash(struct {
			Hier cache.HierarchyConfig
		}{c.Hier}), true
	case InorderConfig:
		return hash(struct {
			Hier        cache.HierarchyConfig
			BimodalBits int
		}{c.Hier, c.BimodalBits}), true
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

// TestConfigFingerprintComplete checks that every registered
// backend's configuration is plain data that content addressing sees
// in full. A reachable func, chan or interface has no content to
// fingerprint, and fingerprint.Of skips unexported fields, so either
// would let two different machines share a cache key and a checkpoint
// tag. Every exported leaf is then perturbed in turn, and each
// perturbation must change the fingerprint.
func TestConfigFingerprintComplete(t *testing.T) {
	for _, d := range Backends() {
		if !plainData(t, d.Name, reflect.TypeOf(d.Config)) {
			continue
		}
		cfg := reflect.New(reflect.TypeOf(d.Config)).Elem()
		cfg.Set(reflect.ValueOf(d.Config))
		base := fingerprint.Of(cfg.Interface())
		changed := func() bool { return fingerprint.Of(cfg.Interface()) != base }
		if n := perturbLeaves(t, d.Name, cfg, changed); n == 0 {
			t.Errorf("%s: configuration has no leaves to perturb", d.Name)
		}
		if changed() {
			t.Errorf("%s: fingerprint differs after every leaf was restored", d.Name)
		}
	}
}

// plainData reports whether values of typ hold only exported
// scalars, strings, and structs, arrays, slices and pointers of them,
// naming each offending field under path.
func plainData(t *testing.T, path string, typ reflect.Type) bool {
	t.Helper()
	switch typ.Kind() {
	case reflect.Struct:
		ok := true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s: unexported field, invisible to the fingerprint", path, f.Name)
				ok = false
				continue
			}
			ok = plainData(t, path+"."+f.Name, f.Type) && ok
		}
		return ok
	case reflect.Array, reflect.Slice, reflect.Pointer:
		return plainData(t, path+"[]", typ.Elem())
	case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer, reflect.Map:
		t.Errorf("%s: %s is not plain configuration data", path, typ)
		return false
	}
	return true
}

// perturbLeaves changes each scalar or string leaf under v in turn,
// reports any change changed does not see, restores the leaf, and
// returns the number of leaves perturbed.
func perturbLeaves(t *testing.T, path string, v reflect.Value, changed func() bool) int {
	t.Helper()
	n := 0
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += perturbLeaves(t, path+"."+v.Type().Field(i).Name, v.Field(i), changed)
		}
		return n
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += perturbLeaves(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), changed)
		}
		return n
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return perturbLeaves(t, path, v.Elem(), changed)
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(!v.Bool())
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	case v.CanFloat():
		v.SetFloat(v.Float()*2 + 1)
	case v.Kind() == reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Errorf("%s: no perturbation for kind %s", path, v.Kind())
		return 0
	}
	if !changed() {
		t.Errorf("%s: perturbing it leaves the fingerprint unchanged", path)
	}
	v.Set(old)
	return 1
}
