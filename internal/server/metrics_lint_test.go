// metrics_lint_test.go parses the /metrics exposition output the way a
// Prometheus scraper would and enforces the format contract for every
// family: HELP and TYPE precede samples, counter names end in _total,
// histograms expose cumulative non-decreasing buckets ending at +Inf with
// matching _sum and _count series.
package server

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
)

type metricFamily struct {
	name    string
	help    bool
	typ     string
	samples []metricSample
}

type metricSample struct {
	name   string // full series name, e.g. foo_bucket
	labels map[string]string
	value  float64
}

// parseExposition parses the Prometheus text format, failing the test on
// any syntactic violation: samples before their family's HELP/TYPE, unknown
// series suffixes, malformed label sets or values.
func parseExposition(t *testing.T, body string) map[string]*metricFamily {
	t.Helper()
	fams := map[string]*metricFamily{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP line without text: %q", line)
				continue
			}
			f := fams[parts[0]]
			if f == nil {
				f = &metricFamily{name: parts[0]}
				fams[parts[0]] = f
			}
			if len(f.samples) > 0 {
				t.Errorf("family %s: HELP appears after its samples", parts[0])
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			f := fams[parts[0]]
			if f == nil {
				f = &metricFamily{name: parts[0]}
				fams[parts[0]] = f
			}
			if len(f.samples) > 0 {
				t.Errorf("family %s: TYPE appears after its samples", parts[0])
			}
			f.typ = parts[1]
		case strings.HasPrefix(line, "#"):
			// comments are legal
		default:
			name, labels, value, err := parseSample(line)
			if err != nil {
				t.Errorf("bad sample line %q: %v", line, err)
				continue
			}
			fam := familyOf(name, fams)
			if fam == nil {
				t.Errorf("sample %s has no preceding HELP/TYPE family", name)
				continue
			}
			fam.samples = append(fam.samples, metricSample{name: name, labels: labels, value: value})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return fams
}

// familyOf maps a series name to its family: exact for counters/gauges,
// suffix-stripped for histogram series.
func familyOf(name string, fams map[string]*metricFamily) *metricFamily {
	if f, ok := fams[name]; ok {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if f, ok := fams[base]; ok && f.typ == "histogram" {
				return f
			}
		}
	}
	return nil
}

func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		labels = map[string]string{}
		for _, pair := range splitLabels(rest[i+1 : end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return "", nil, 0, fmt.Errorf("bad label %q", pair)
			}
			uq, err := strconv.Unquote(v)
			if err != nil {
				return "", nil, 0, fmt.Errorf("label %s value %s not quoted: %v", k, v, err)
			}
			labels[k] = uq
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("want 'name value'")
		}
		name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value: %v", err)
	}
	return name, labels, v, nil
}

// splitLabels splits a,b,c at commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestMetricsExpositionLint(t *testing.T) {
	_, ts, client := newTestServer(t, memCatalog(t), Config{})
	// Populate the histograms and counters with real traffic first.
	for i := 0; i < 3; i++ {
		if res := postQuery(t, client, ts.URL, map[string]any{"sql": threeWayJoin}); res.status != http.StatusOK {
			t.Fatalf("query %d: status=%d", i, res.status)
		}
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	resp.Body.Close()

	fams := parseExposition(t, body.String())
	if len(fams) == 0 {
		t.Fatal("no metric families parsed")
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if !f.help || f.typ == "" {
			t.Errorf("family %s missing HELP or TYPE", name)
			continue
		}
		switch f.typ {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s does not end in _total", name)
			}
			for _, s := range f.samples {
				if s.value < 0 {
					t.Errorf("counter %s is negative: %v", s.name, s.value)
				}
			}
		case "gauge":
			// no naming constraint
		case "histogram":
			lintHistogramFamily(t, f)
		default:
			t.Errorf("family %s has unknown type %q", name, f.typ)
		}
		if len(f.samples) == 0 {
			t.Errorf("family %s declared but has no samples", name)
		}
	}

	// The histograms the tentpole added must exist and have seen the
	// queries above.
	for _, want := range []string{"stemsd_query_duration_seconds", "stemsd_query_queue_seconds", "stemsd_query_rows"} {
		f := fams[want]
		if f == nil || f.typ != "histogram" {
			t.Errorf("missing histogram family %s", want)
			continue
		}
		for _, s := range f.samples {
			if s.name == want+"_count" && s.value != 3 {
				t.Errorf("%s_count = %v, want 3", want, s.value)
			}
		}
	}
	// The old sum-only counter must be gone.
	if _, ok := fams["stemsd_query_seconds_total"]; ok {
		t.Error("stemsd_query_seconds_total still exposed; histograms replaced it")
	}
	// So must the spill gauges: no SteM state, shared or private, holds a file.
	for _, gone := range []string{"stemsd_shared_stem_spilled_bytes", "stemsd_stem_spilled_bytes", "stemsd_stem_resident_bytes"} {
		if _, ok := fams[gone]; ok {
			t.Errorf("%s still exposed; SteM state is memory only", gone)
		}
	}
	if _, ok := fams["stemsd_shared_stem_resident_bytes"]; !ok {
		t.Error("stemsd_shared_stem_resident_bytes missing")
	}
	// What fell off the column path is a counter an operator can read.
	if f := fams["stemsd_materialized_rows_total"]; f == nil || f.typ != "counter" {
		t.Error("stemsd_materialized_rows_total missing or not a counter")
	}
	// Every engine round is booked under the driver that ran it; the three
	// small in-memory joins above ran inline.
	if f := fams["stemsd_eddy_runs_total"]; f == nil || f.typ != "counter" {
		t.Error("stemsd_eddy_runs_total missing or not a counter")
	} else {
		by := map[string]float64{}
		for _, s := range f.samples {
			by[s.labels["driver"]] = s.value
		}
		if _, ok := by["goroutines"]; len(by) != 2 || !ok || by["inline"] < 3 {
			t.Errorf("stemsd_eddy_runs_total by driver = %v, want inline ≥ 3 and a goroutines series", by)
		}
	}
}

// lintHistogramFamily checks the cumulative-bucket contract: le values
// ascend and end at +Inf, counts never decrease, the +Inf bucket equals
// _count, and _sum exists.
func lintHistogramFamily(t *testing.T, f *metricFamily) {
	t.Helper()
	var buckets []metricSample
	var sum, count *metricSample
	for i, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			buckets = append(buckets, s)
		case f.name + "_sum":
			sum = &f.samples[i]
		case f.name + "_count":
			count = &f.samples[i]
		default:
			t.Errorf("histogram %s has stray series %s", f.name, s.name)
		}
	}
	if len(buckets) == 0 || sum == nil || count == nil {
		t.Errorf("histogram %s missing buckets/_sum/_count", f.name)
		return
	}
	prevLE := math.Inf(-1)
	prevCount := -1.0
	for _, b := range buckets {
		leStr, ok := b.labels["le"]
		if !ok {
			t.Errorf("histogram %s bucket without le label", f.name)
			return
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Errorf("histogram %s: bad le %q", f.name, leStr)
			return
		}
		if le <= prevLE {
			t.Errorf("histogram %s: le %v not ascending after %v", f.name, le, prevLE)
		}
		if b.value < prevCount {
			t.Errorf("histogram %s: bucket le=%q count %v below previous %v (not cumulative)", f.name, leStr, b.value, prevCount)
		}
		prevLE, prevCount = le, b.value
	}
	last := buckets[len(buckets)-1]
	if last.labels["le"] != "+Inf" {
		t.Errorf("histogram %s: last bucket le=%q, want +Inf", f.name, last.labels["le"])
	}
	if last.value != count.value {
		t.Errorf("histogram %s: +Inf bucket %v != _count %v", f.name, last.value, count.value)
	}
}
