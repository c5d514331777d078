package daemon

import (
	"flag"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"gdn/internal/obs"
)

// DebugMux returns the live-exposition HTTP mux every daemon can
// serve: the process-wide metrics registry as Prometheus text, the
// recent trace spans as JSON, and the standard pprof handlers.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/gdn/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, obs.Default)
	})
	mux.HandleFunc("/debug/gdn/traces", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if n, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && n > 0 {
			limit = n
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(obs.TracesJSON(limit)) //nolint:errcheck
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugFlags adds the -debug-addr flag shared by every daemon.
type DebugFlags struct {
	// Addr is the address the debug HTTP endpoint listens on; empty
	// disables it.
	Addr string
}

// Register installs the flag on fs.
func (df *DebugFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&df.Addr, "debug-addr", "",
		"serve /debug/gdn/metrics, /debug/gdn/traces and pprof on this address (empty: off)")
}

// Serve starts the debug endpoint when -debug-addr was given. It
// returns the bound address ("" when disabled) so callers can log it;
// errors are fatal because an operator who asked for the endpoint
// needs to know it is not there.
func (df *DebugFlags) Serve(logf func(string, ...any)) string {
	if df.Addr == "" {
		return ""
	}
	ln, err := net.Listen("tcp", df.Addr)
	if err != nil {
		Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, DebugMux()); err != nil {
			logf("debug endpoint: %v", err)
		}
	}()
	return ln.Addr().String()
}
