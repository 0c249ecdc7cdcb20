// gen.go is the seeded input generator: the six tables stemsd registers,
// the fixed operation sequence of each workload, and — computed here, never
// by the engine under test — the reference result of every operation. The
// generator depends on the standard library only, so the load path keeps
// working however the engine's internal APIs move.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Table sizes of the issue's dataset. Every order references one existing
// customer and one existing item, so the unfiltered 3-way join has exactly
// one result row per order.
const (
	nCustomers = 1000
	nOrders    = 4000
	nItems     = 200
	nCats      = 50 // items.cat ∈ [0,nCats): the J(k) family has 50 members
	nRegions   = 8
	nVariants  = 64 // literal variants of the ad-hoc small join
)

type order struct{ id, cust, item, total int }

// dataset is the generated catalog content. The big tables drive the J(k)
// family; the s_* tables are the examples/serving-shaped tiny join.
type dataset struct {
	region []string // customers.region by customer id
	tier   []int
	cat    []int // items.cat by item id
	price  []int
	orders []order

	sPeople [][3]string // id, name, city
	sOrders [][4]int    // id, person, item, total
	sItems  [][3]string // id, label, price
}

func newDataset(rng *rand.Rand) *dataset {
	d := &dataset{}
	for i := 0; i < nCustomers; i++ {
		d.region = append(d.region, "r"+strconv.Itoa(rng.Intn(nRegions)))
		d.tier = append(d.tier, rng.Intn(3))
	}
	for i := 0; i < nItems; i++ {
		// i % nCats keeps every J(k) non-empty; prices carry the seed.
		d.cat = append(d.cat, i%nCats)
		d.price = append(d.price, 1+rng.Intn(500))
	}
	for i := 0; i < nOrders; i++ {
		d.orders = append(d.orders, d.newOrder(rng))
	}
	names := []string{"ada", "bob", "cyd", "dee", "eve"}
	cities := []string{"london", "zurich", "oslo", "lima", "kyoto"}
	for i, n := range names {
		d.sPeople = append(d.sPeople, [3]string{strconv.Itoa(i + 1), n, cities[rng.Intn(len(cities))]})
	}
	labels := []string{"widget", "gadget", "gizmo", "doohickey"}
	for i, l := range labels {
		d.sItems = append(d.sItems, [3]string{strconv.Itoa(i + 1), l, strconv.Itoa(10 + rng.Intn(90))})
	}
	for i := 0; i < 8; i++ {
		// Totals stay ≥ 100 so every literal variant (total > L, L < 64)
		// keeps all eight rows.
		d.sOrders = append(d.sOrders, [4]int{100 + i, 1 + rng.Intn(len(names)), 1 + rng.Intn(len(labels)), 100 + rng.Intn(900)})
	}
	return d
}

// newOrder draws the next order; ids are dense, so rows are distinct (SteMs
// apply set semantics) whatever the random columns repeat.
func (d *dataset) newOrder(rng *rand.Rand) order {
	return order{id: len(d.orders), cust: rng.Intn(nCustomers), item: rng.Intn(nItems), total: 1 + rng.Intn(999)}
}

// joinLine is the NDJSON line stemsd streams for one result row of the big
// 3-way join, byte for byte (column order follows the SELECT list).
func (d *dataset) joinLine(o order) string {
	return fmt.Sprintf(`{"row":{"customers.region":%q,"items.price":%d,"orders.total":%d}}`,
		d.region[o.cust], d.price[o.item], o.total)
}

// baseJoinLines is the unfiltered big join over the orders the CSV holds:
// the snapshot a fresh subscription streams.
func (d *dataset) baseJoinLines() []string {
	out := make([]string, nOrders)
	for i, o := range d.orders[:nOrders] {
		out[i] = d.joinLine(o)
	}
	return out
}

// smallLines is the reference result of the tiny 3-way join.
func (d *dataset) smallLines() []string {
	var out []string
	for _, so := range d.sOrders {
		out = append(out, fmt.Sprintf(`{"row":{"s_people.name":%q,"s_items.label":%q,"s_orders.total":%d}}`,
			d.sPeople[so[1]-1][1], d.sItems[so[2]-1][1], so[3]))
	}
	return out
}

// writeCSVs writes the six tables into dir, the only form in which stemsd
// ever sees the dataset.
func (d *dataset) writeCSVs(dir string) error {
	table := func(name, header string, n int, row func(i int) string) error {
		var b strings.Builder
		b.WriteString(header + "\n")
		for i := 0; i < n; i++ {
			b.WriteString(row(i) + "\n")
		}
		return os.WriteFile(filepath.Join(dir, name+".csv"), []byte(b.String()), 0o644)
	}
	return errors.Join(
		table("customers", "id,region,tier", nCustomers, func(i int) string {
			return fmt.Sprintf("%d,%s,%d", i, d.region[i], d.tier[i])
		}),
		table("items", "id,cat,price", nItems, func(i int) string {
			return fmt.Sprintf("%d,%d,%d", i, d.cat[i], d.price[i])
		}),
		// Only the first nOrders: later ones are the plan's inserts.
		table("orders", "id,cust,item,total", nOrders, func(i int) string {
			o := d.orders[i]
			return fmt.Sprintf("%d,%d,%d,%d", o.id, o.cust, o.item, o.total)
		}),
		table("s_people", "id,name,city", len(d.sPeople), func(i int) string { return strings.Join(d.sPeople[i][:], ",") }),
		table("s_orders", "id,person,item,total", len(d.sOrders), func(i int) string {
			o := d.sOrders[i]
			return fmt.Sprintf("%d,%d,%d,%d", o[0], o[1], o[2], o[3])
		}),
		table("s_items", "id,label,price", len(d.sItems), func(i int) string { return strings.Join(d.sItems[i][:], ",") }),
	)
}

// tableNames lists the tables in registration order.
var tableNames = []string{"customers", "orders", "items", "s_people", "s_orders", "s_items"}

const (
	joinSQL  = "SELECT customers.region, items.price, orders.total FROM customers, orders, items WHERE customers.id = orders.cust AND orders.item = items.id"
	smallSQL = "SELECT s_people.name, s_items.label, s_orders.total FROM s_people, s_orders, s_items WHERE s_people.id = s_orders.person AND s_orders.item = s_items.id"
)

// jSQL is member k of the join family J(k).
func jSQL(k int) string { return joinSQL + " AND items.cat = " + strconv.Itoa(k) }

// opKind names a request shape; the four the ROADMAP wants measured plus the
// two INSERT routes.
type opKind uint8

const (
	opJoin      opKind = iota // ad-hoc J(k)
	opExecute                 // EXECUTE hot
	opSmall                   // ad-hoc tiny join, one of nVariants literals
	opInsertSQL               // INSERT INTO orders VALUES (...)×8 via /query
	opIngest                  // POST /insert of 4 rows, then 4 delta rows on the subscription
	nOpKinds
)

var opKindNames = [nOpKinds]string{"join", "execute", "small", "insert_sql", "ingest"}

// op is one request with its reference result.
type op struct {
	kind opKind
	path string // /query or /insert
	body string // the JSON request body, as sent
	sql  string // statement text of a /query op; a SELECT's keys the once-per-text multiset check
	// want is the reference result as the NDJSON lines stemsd must stream
	// (any order). Inserts have none; an ingest's are its four delta rows.
	want []string
	// rows are the orders an insert appends.
	rows []order
}

func queryOp(kind opKind, sql string, want []string) op {
	return op{kind: kind, path: "/query", body: `{"sql":` + strconv.Quote(sql) + `}`, sql: sql, want: want}
}

// segments is how many equal, consecutive parts the measured sequence is cut
// into. The sequence is one fixed run of ops — a table a workload writes to
// keeps growing through all of it; a segment is only the unit over which the
// time metrics take their median, so that a disturbance of the box lasting a
// few seconds moves a few segments and not the reported number.
const segments = 12

// plan is one workload's complete, seed-determined traffic: warm-up ops and
// the measured sequence, in the order they are issued, each op with its
// reference result.
type plan struct {
	data      *dataset
	warm      []op // warmJoins J(k), then ops of the workload's own mix
	warmJoins int
	ops       []op // the measured sequence
	// finalOrders is the orders row count after the last measured op.
	finalOrders int
}

// head returns the plan's first n measured ops.
func (p *plan) head(n int) []op { return p.ops[:min(n, len(p.ops))] }

// segment returns part i of the measured sequence cut into n equal parts
// (the last takes the remainder).
func (p *plan) segment(i, n int) []op {
	size := len(p.ops) / n
	if i == n-1 {
		return p.ops[i*size:]
	}
	return p.ops[i*size : (i+1)*size]
}

// genState tracks the orders table as inserts extend it, so a SELECT's
// reference reflects exactly the rows inserted before it in the sequence.
type genState struct {
	d     *dataset
	rng   *rand.Rand
	byCat [nCats][]string // result lines of J(k), maintained through the inserts
	k     int             // the J(k) member shared_read_write's current cycle reads
}

func newGenState(d *dataset, rng *rand.Rand) *genState {
	g := &genState{d: d, rng: rng}
	for _, o := range d.orders {
		k := d.cat[o.item]
		g.byCat[k] = append(g.byCat[k], d.joinLine(o))
	}
	return g
}

func (g *genState) join() op { return g.joinK(g.rng.Intn(nCats)) }

func (g *genState) joinK(k int) op {
	// Full-slice expression: later inserts append to byCat[k] without
	// touching this op's reference.
	return queryOp(opJoin, jSQL(k), g.byCat[k][:len(g.byCat[k]):len(g.byCat[k])])
}

func (g *genState) insertRows(n int) []order {
	rows := make([]order, n)
	for i := range rows {
		o := g.d.newOrder(g.rng)
		g.d.orders = append(g.d.orders, o)
		k := g.d.cat[o.item]
		g.byCat[k] = append(g.byCat[k], g.d.joinLine(o))
		rows[i] = o
	}
	return rows
}

func (g *genState) insertSQL() op {
	var b strings.Builder
	b.WriteString("INSERT INTO orders VALUES ")
	rows := g.insertRows(8)
	for i, o := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d)", o.id, o.cust, o.item, o.total)
	}
	ins := queryOp(opInsertSQL, b.String(), nil)
	ins.rows = rows
	return ins
}

func (g *genState) ingest() op {
	var b strings.Builder
	b.WriteString(`{"table":"orders","rows":[`)
	var want []string
	rows := g.insertRows(4)
	for i, o := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d,%d,%d]", o.id, o.cust, o.item, o.total)
		want = append(want, g.d.joinLine(o))
	}
	b.WriteString("]}")
	return op{kind: opIngest, path: "/insert", body: b.String(), want: want, rows: rows}
}

func (g *genState) small(i int, lines []string) op {
	if i%2 == 0 {
		return queryOp(opExecute, "EXECUTE hot", lines)
	}
	return queryOp(opSmall, smallSQL+" AND s_orders.total > "+strconv.Itoa(g.rng.Intn(nVariants)), lines)
}

// mix returns op i of the workload's own traffic mix.
func (g *genState) mix(w *workload, i int, smallLines []string) op {
	switch w.name {
	case "join_heavy":
		return g.join()
	case "small_requests":
		return g.small(i, smallLines)
	case "ingest_subscribe":
		return g.ingest()
	default:
		// shared_read_write: a fixed cycle of one INSERT and four reads of
		// one J(k). The INSERT invalidates every cached plan and detaches
		// the shared orders SteM, so read #1 rebinds and rebuilds and reads
		// #2–#4 hit the plan cache and attach.
		if i%5 == 0 {
			g.k = g.rng.Intn(nCats)
			return g.insertSQL()
		}
		return g.joinK(g.k)
	}
}

// warmJoins is the J(k) prefix every workload's warm-up starts with.
const warmJoins = 20

// newPlan generates workload w's traffic for the given seed with nOps
// measured ops. quick is the smoke test's size: a tenth of the warm-up.
func newPlan(w *workload, seed int64, nOps int, quick bool) *plan {
	warmDiv := 1
	if quick {
		warmDiv = 10
	}
	rng := rand.New(rand.NewSource(seed))
	d := newDataset(rng)
	g := newGenState(d, rng)
	small := d.smallLines()
	p := &plan{data: d, warmJoins: warmJoins / warmDiv}
	for i := 0; i < p.warmJoins; i++ {
		p.warm = append(p.warm, g.join())
	}
	for i := 0; i < w.warmOps/warmDiv; i++ {
		p.warm = append(p.warm, g.mix(w, i, small))
	}
	p.ops = make([]op, nOps)
	for i := range p.ops {
		p.ops[i] = g.mix(w, i, small)
	}
	p.finalOrders = len(d.orders)
	return p
}
