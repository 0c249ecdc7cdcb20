// Command stemsql executes SQL select-project-join queries over CSV files
// with the adaptive SteM engine — no plans, no optimizer; the eddy routes.
//
// Usage:
//
//	stemsql -t people=people.csv -t orders=orders.csv \
//	        -q "SELECT people.name, orders.total FROM people, orders WHERE people.id = orders.person AND orders.total >= 100"
//
// Without -q, stemsql reads statements from stdin. Statements end with ';'
// and may span lines; a blank line is ignored, and the REPL quits on EOF or
// a lone \q. Tables can be added at run time with
//
//	stemsql> REGISTER TABLE items FROM 'items.csv' INDEX id LATENCY 50ms;
//
// INSERT INTO t VALUES (...) appends rows to a registered table; later
// statements see them (running stemsd subscriptions fed through -server
// receive the delta).
//
// Each source gets a scan access method by default; declare an extra
// asynchronous index with -index table:column:latency, e.g.
// -index people:id:200ms, and pick a routing policy with -policy.
//
// -engine selects the executor: sim (default) is the deterministic
// discrete-event simulator; concurrent runs the goroutine-per-module engine,
// whose eddy moves tuples in batches of -batch (default 64; 1 is
// tuple-at-a-time).
//
// PREPARE name AS <select> parses a statement once; EXECUTE name reruns it
// (binding against the catalog as it stands at execute time, so tables
// REGISTERed in between are picked up). \plans lists the prepared
// statements.
//
// With -server URL the REPL becomes a client of a running stemsd: every
// statement is sent to the server (PREPARE/EXECUTE then hit its plan cache
// and pooled engine shells), rows stream back as they are produced, and
// \plans shows the server's prepared statements and cached plans.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eddy"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/tuple"
)

type tableFlags []string

func (t *tableFlags) String() string     { return strings.Join(*t, ",") }
func (t *tableFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var tables, indexes tableFlags
	flag.Var(&tables, "t", "source as name=path.csv (repeatable)")
	flag.Var(&indexes, "index", "index access method as table:column:latency (repeatable)")
	q := flag.String("q", "", "SQL statement; omit for a stdin REPL")
	policyName := flag.String("policy", "benefitcost", "routing policy: fixed, lottery, benefitcost")
	engineName := flag.String("engine", "sim", "execution engine: sim (deterministic) or concurrent")
	batch := flag.Int("batch", eddy.DefaultBatchSize, "concurrent engine eddy batch size; 1 is tuple-at-a-time")
	seed := flag.Int64("seed", 1, "seed for randomized policies")
	timing := flag.Bool("timing", false, "print per-result virtual emission times and run stats")
	explain := flag.Bool("explain", false, "print a per-module adaptive-execution report after the results")
	serverURL := flag.String("server", "", "base URL of a running stemsd (e.g. http://localhost:8080): statements run on the server instead of locally, and \\plans lists its plan cache")
	flag.Parse()

	if *serverURL != "" {
		cli := &remoteClient{base: strings.TrimRight(*serverURL, "/")}
		runOne := func(stmt string, doExplain bool) bool {
			if err := cli.run(stmt, *explain || doExplain); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return false
			}
			return true
		}
		if *q != "" {
			if !runOne(strings.TrimSuffix(strings.TrimSpace(*q), ";"), false) {
				os.Exit(1)
			}
			return
		}
		repl(os.Stdin, runOne, cli.plans)
		return
	}

	cat := server.NewCatalog(0, "")
	if err := cat.LoadFlagSpecs(tables, indexes); err != nil {
		fmt.Fprintf(os.Stderr, "stemsql: %v\n", err)
		os.Exit(1)
	}
	prepped := map[string]*sql.Stmt{}
	runOne := func(stmt string, doExplain bool) bool {
		if err := run(stmt, cat, prepped, *policyName, *engineName, *batch, *seed, *timing, *explain || doExplain); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		return true
	}
	localPlans := func() bool {
		if len(prepped) == 0 {
			fmt.Println("-- no prepared statements")
			return true
		}
		names := make([]string, 0, len(prepped))
		for n := range prepped {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s\t%s\n", n, prepped[n].Canonical())
		}
		return true
	}

	if *q != "" {
		if !runOne(strings.TrimSuffix(strings.TrimSpace(*q), ";"), false) {
			os.Exit(1)
		}
		return
	}
	repl(os.Stdin, runOne, localPlans)
}

// repl reads ';'-terminated statements (possibly spanning lines) until EOF
// or a lone \q. Terminators are recognized only outside single-quoted
// strings, several statements may share a line, blank lines re-prompt
// instead of quitting, and a statement still buffered at EOF runs without
// its terminator — piped single statements work with or without ';'.
// A lone \plans (no terminator) invokes the plans hook: the server's plan
// cache when connected, the local prepared statements otherwise. A lone
// \explain reruns the last statement with the per-module trace enabled
// (locally or, when connected, as an "explain": true server query); before
// any statement has run, it arms the trace for the next one.
func repl(in *os.File, runOne func(stmt string, explain bool) bool, plans func() bool) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var buf strings.Builder
	var lastStmt string
	armExplain := false
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("stemsql> ")
		} else {
			fmt.Print("    ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if buf.Len() == 0 && (line == `\q` || line == "quit" || line == "exit") {
			return
		}
		if buf.Len() == 0 && line == `\plans` {
			plans()
			prompt()
			continue
		}
		if buf.Len() == 0 && line == `\explain` {
			if lastStmt == "" {
				armExplain = true
				fmt.Println("-- no previous statement; explain armed for the next one")
			} else {
				runOne(lastStmt, true)
			}
			prompt()
			continue
		}
		if line != "" {
			if buf.Len() > 0 {
				buf.WriteByte('\n')
			}
			buf.WriteString(line)
		}
		complete, rest := splitStatements(buf.String())
		buf.Reset()
		buf.WriteString(rest)
		for _, stmt := range complete {
			if stmt = strings.TrimSpace(stmt); stmt != "" {
				runOne(stmt, armExplain)
				armExplain = false
				lastStmt = stmt
			}
		}
		prompt()
	}
	fmt.Println()
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "stemsql: reading input: %v\n", err)
		return
	}
	if stmt := strings.TrimSpace(buf.String()); stmt != "" {
		runOne(stmt, armExplain)
	}
}

// splitStatements splits buffered input on ';' terminators that sit
// outside single-quoted strings (where ” is the escape, so the simple
// quote toggle is exact); rest is the trailing unterminated remainder.
func splitStatements(s string) (complete []string, rest string) {
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			inStr = !inStr
		case s[i] == ';' && !inStr:
			complete = append(complete, s[start:i])
			start = i + 1
		}
	}
	return complete, strings.TrimLeft(s[start:], " \t\n")
}

func run(stmtSrc string, cat *server.Catalog, prepped map[string]*sql.Stmt, policyName, engineName string, batch int, seed int64, timing, explain bool) error {
	parsed, err := sql.ParseStatement(stmtSrc)
	if err != nil {
		return err
	}
	var stmt *sql.Stmt
	switch st := parsed.(type) {
	case *sql.RegisterStmt:
		rows, err := cat.Apply(st)
		if err != nil {
			return err
		}
		fmt.Printf("-- registered table %s (%d rows)\n", st.Name, rows)
		return nil
	case *sql.InsertStmt:
		total, err := cat.Append(st.Table, st.RowValues())
		if err != nil {
			return err
		}
		fmt.Printf("-- inserted %d rows into %s (%d total)\n", len(st.Rows), st.Table, total)
		return nil
	case *sql.PrepareStmt:
		if _, dup := prepped[st.Name]; dup {
			return fmt.Errorf("stemsql: statement %q already prepared", st.Name)
		}
		// Bind now for early diagnostics; EXECUTE re-binds against the
		// catalog as it stands then, exactly like the server's plan cache
		// after a REGISTER invalidation.
		if _, err := sql.Bind(st.Select, cat.Snapshot()); err != nil {
			return err
		}
		prepped[st.Name] = st.Select
		fmt.Printf("-- prepared %s\n", st.Name)
		return nil
	case *sql.ExecuteStmt:
		sel, ok := prepped[st.Name]
		if !ok {
			return fmt.Errorf("stemsql: no prepared statement %q (PREPARE it first)", st.Name)
		}
		stmt = sel
	case *sql.Stmt:
		stmt = st
	default:
		return fmt.Errorf("stemsql: statement type %T is not runnable here", parsed)
	}
	bound, err := sql.Bind(stmt, cat.Snapshot())
	if err != nil {
		return err
	}
	engine, err := core.EngineByName(engineName)
	if err != nil {
		return fmt.Errorf("stemsql: %w", err)
	}
	ex, err := core.Build(core.Spec{
		Q:      bound.Q,
		Engine: engine,
		Policy: policyName,
		Seed:   seed,
		Batch:  batch,
		Trace:  explain,
	})
	if err != nil {
		return fmt.Errorf("stemsql: %w", err)
	}
	defer ex.Release()
	outs, err := ex.Run(context.Background(), nil, nil)
	if err != nil {
		return err
	}
	// ORDER BY / LIMIT are applied above the eddy.
	tuples := make([]*tuple.Tuple, len(outs))
	atOf := make(map[*tuple.Tuple]float64, len(outs))
	for i, o := range outs {
		tuples[i] = o.T
		atOf[o.T] = o.At.Seconds()
	}
	tuples = bound.Arrange(tuples)

	// Header.
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for i, oc := range bound.Output {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, oc.Name)
	}
	if timing {
		fmt.Fprint(w, "\t@virtual")
	}
	fmt.Fprintln(w)
	for _, t := range tuples {
		printRow(w, t, bound.Output)
		if timing {
			fmt.Fprintf(w, "\t%.6fs", atOf[t])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "-- %d rows", len(tuples))
	if timing {
		st := ex.Stats()
		fmt.Fprintf(w, "; %d routing steps", st.RoutingSteps)
		if engine == core.Sim {
			fmt.Fprintf(w, "; %d sim events", st.Events)
		}
	}
	fmt.Fprintln(w)
	if explain {
		fmt.Fprintln(w)
		fmt.Fprint(w, ex.Report())
	}
	return nil
}

func printRow(w *bufio.Writer, t *tuple.Tuple, out []sql.OutputCol) {
	for i, oc := range out {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, t.Value(oc.Table, oc.Col))
	}
}

// remoteClient runs statements against a stemsd server instead of the
// in-process engine: each statement POSTs to /query and the NDJSON response
// streams to stdout as it arrives, so long-running joins show rows while
// the server's eddy is still routing.
type remoteClient struct {
	base string
	http http.Client
}

func (c *remoteClient) run(stmt string, explain bool) error {
	body, err := json.Marshal(map[string]any{"sql": stmt, "explain": explain})
	if err != nil {
		return fmt.Errorf("stemsql: %v", err)
	}
	resp, err := c.http.Post(c.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("stemsql: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	sawPayload := false
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			return fmt.Errorf("stemsql: malformed response line %q: %v", line, err)
		}
		sawPayload = true
		switch {
		case obj["error"] != nil:
			w.Flush()
			return fmt.Errorf("stemsql: server: %v", obj["error"])
		case obj["row"] != nil:
			// Re-marshal the row object: encoding/json sorts map keys, so
			// column order is stable across rows.
			b, err := json.Marshal(obj["row"])
			if err != nil {
				return fmt.Errorf("stemsql: %v", err)
			}
			w.Write(b)
			w.WriteByte('\n')
		case obj["done"] == true:
			fmt.Fprintf(w, "-- %v rows; %v routing steps; %v ms\n",
				obj["rows"], obj["routing_steps"], obj["elapsed_ms"])
		case obj["trace"] != nil:
			if err := printServerTrace(w, obj["trace"]); err != nil {
				return err
			}
		case obj["prepared"] != nil:
			fmt.Fprintf(w, "-- prepared %v\n", obj["prepared"])
		case obj["registered"] != nil:
			fmt.Fprintf(w, "-- registered table %v (%v rows)\n", obj["registered"], obj["rows"])
		case obj["inserted"] != nil:
			fmt.Fprintf(w, "-- inserted %v rows into %v (%v total)\n", obj["inserted"], obj["table"], obj["total_rows"])
		default:
			// Future line kinds pass through rather than vanish.
			w.Write(line)
			w.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stemsql: reading response: %v", err)
	}
	// A non-200 with no in-band error line (proxy page, panic, empty body)
	// would otherwise vanish; say what the server actually returned.
	if resp.StatusCode != http.StatusOK {
		detail := ""
		if !sawPayload {
			detail = " with no parseable error"
		}
		return fmt.Errorf("stemsql: server returned HTTP %d%s", resp.StatusCode, detail)
	}
	return nil
}

// printServerTrace pretty-prints the final NDJSON trace record of an
// "explain": true server query: a per-module table mirroring
// trace.Collector.Report plus the routing policy's learned per-signature
// estimates when the server included them.
func printServerTrace(w *bufio.Writer, raw any) error {
	b, err := json.Marshal(raw)
	if err != nil {
		return fmt.Errorf("stemsql: %v", err)
	}
	var rec trace.Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("stemsql: decoding trace: %v", err)
	}
	fmt.Fprintf(w, "\n-- explain: %d results, last output at %.6fs\n", rec.Results, rec.LastOutputS)
	fmt.Fprintf(w, "%-24s %10s %10s %12s %12s\n", "module", "visits", "outputs", "selectivity", "busy(s)")
	for _, m := range rec.Modules {
		fmt.Fprintf(w, "%-24s %10d %10d %12.4f %12.6f\n",
			m.Name, m.Visits, m.Outputs, m.Selectivity, m.BusySeconds)
	}
	if len(rec.Policy) > 0 {
		fmt.Fprintf(w, "-- policy state (learned per-signature estimates):\n")
		fmt.Fprintf(w, "%-24s %18s %10s %14s %12s\n", "module", "sig", "visits", "out/visit", "cost(s)")
		for _, p := range rec.Policy {
			fmt.Fprintf(w, "%-24s %18x %10d %14.4f %12.6f\n",
				p.Module, p.Sig, p.Visits, p.OutPerVisit, p.CostSeconds)
		}
	}
	return nil
}

// plans fetches GET /plans and prints the server's named prepared
// statements followed by its plan-cache entries in MRU order.
func (c *remoteClient) plans() bool {
	resp, err := c.http.Get(c.base + "/plans")
	if err != nil {
		fmt.Fprintf(os.Stderr, "stemsql: %v\n", err)
		return false
	}
	defer resp.Body.Close()
	var pl struct {
		Prepared []struct {
			Name string `json:"name"`
			SQL  string `json:"sql"`
		} `json:"prepared"`
		Plans []struct {
			SQL      string `json:"sql"`
			Policy   string `json:"policy"`
			Hits     uint64 `json:"hits"`
			InFlight int64  `json:"in_flight"`
		} `json:"plans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pl); err != nil {
		fmt.Fprintf(os.Stderr, "stemsql: decoding /plans: %v\n", err)
		return false
	}
	if len(pl.Prepared) == 0 && len(pl.Plans) == 0 {
		fmt.Println("-- no prepared statements or cached plans")
		return true
	}
	for _, p := range pl.Prepared {
		fmt.Printf("prepared\t%s\t%s\n", p.Name, p.SQL)
	}
	for _, p := range pl.Plans {
		fmt.Printf("plan\t%s\tpolicy=%s hits=%d in_flight=%d\n", p.SQL, p.Policy, p.Hits, p.InFlight)
	}
	return true
}
