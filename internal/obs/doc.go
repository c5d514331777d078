// Package obs is the observability plane: a dependency-free atomic
// metrics registry plus request-scoped trace propagation, shared by
// every layer of the stack and exposed live on each daemon's debug
// mux (see internal/daemon).
//
// # Metric naming conventions
//
// Every series name follows the Prometheus conventions:
//
//   - prefix gdn_, then the owning subsystem: gdn_rpc_*, gdn_store_*,
//     gdn_gls_*, gdn_repl_*, gdn_httpd_*, gdn_peerset_*.
//   - counters end in _total; histograms end in their exposition unit
//     (_seconds, _bytes); gauges name the instantaneous quantity.
//   - low-cardinality variants ride a {label="value"} suffix baked
//     into the series name (e.g. gdn_httpd_responses_total{class="2xx"},
//     gdn_gls_op_seconds{op="lookup"}). Labels are static: a fixed,
//     small set of values chosen at the call site — never request
//     paths, addresses, or object IDs, which would grow the registry
//     without bound. High-cardinality detail belongs in trace spans,
//     whose ring is bounded.
//
// Durations are recorded in nanoseconds and exposed in seconds; sizes
// are recorded and exposed in bytes.
//
// # Overhead budget
//
// The plane is built to sit on the hot path:
//
//   - Counter/Gauge ops are one atomic add. Histogram.Observe is a
//     short bounds scan plus three atomic adds — no locks, no
//     allocation. Call sites cache instrument handles in package-level
//     vars so the registry map is never touched per request.
//   - An untraced request carries a zero SpanContext: sixteen zero
//     bytes in the request frame's fixed trace tail, nil *Span no-ops
//     everywhere, zero ring writes. Only requests that a
//     root (the HTTPD, or a traced experiment) explicitly traces pay
//     for spans, and a recorded span costs one short mutexed ring
//     write at End.
//
// The budget is enforced by CI: bench-smoke compares
// BenchmarkRPC_CallParallel (untraced unary hot path) and
// BenchmarkE5_Download_Large (traced download path) against the
// committed BENCH_seed.json baseline and fails the build on >25%
// regression; the acceptance bar for this plane's introduction was
// <5% on both.
//
// # Trace propagation
//
// A SpanContext is 16 bytes on the wire: trace ID then span ID, the
// tail every RPC request frame ends in (a frame without it is
// malformed). Each hop regenerates the span: the client
// sends its own span's context, the server starts a fresh child span
// for the handler and propagates that context into any nested calls
// the handler makes, so one HTTP download threads a single trace ID
// from the edge HTTPD through proxy caches and replicas down to the
// store walk that feeds the stream. Completed spans land in a bounded
// in-memory ring (DefaultTracer), served as JSON at
// /debug/gdn/traces.
package obs
