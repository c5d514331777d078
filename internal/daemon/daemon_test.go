package daemon

import (
	"flag"
	"reflect"
	"testing"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , , b:2 ", []string{"a:1", "b:2"}},
	}
	for _, c := range cases {
		if got := SplitList(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRegistryHasPackageAndProtocols(t *testing.T) {
	reg := Registry()
	if _, err := reg.NewSemantics("package/1"); err != nil {
		t.Fatal(err)
	}
	protos := reg.Protocols()
	want := map[string]bool{"clientserver": true, "masterslave": true, "active": true, "cache": true}
	for _, p := range protos {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("missing protocols: %v (have %v)", want, protos)
	}
}

func TestClientFlagsRequireGLS(t *testing.T) {
	var cf ClientFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.Runtime(); err == nil {
		t.Fatal("runtime without -gls must fail")
	}
}

func TestClientFlagsRuntimeAssembly(t *testing.T) {
	var cf ClientFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf.Register(fs)
	if err := fs.Parse([]string{"-gls", "h:1", "-dns", "h:2", "-site", "s"}); err != nil {
		t.Fatal(err)
	}
	rt, err := cf.Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Site() != "s" || rt.Names() == nil || rt.Resolver() == nil {
		t.Fatal("runtime assembly incomplete")
	}
}
