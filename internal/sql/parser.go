// parser.go builds the AST for the SPJ dialect:
//
//	SELECT ( '*' | colref (',' colref)* )
//	FROM   table [AS alias] (',' table [AS alias])*
//	WHERE  comparison (AND comparison)*
//
//	comparison := operand ( = | <> | != | < | <= | > | >= ) operand
//	operand    := [alias '.'] column | integer | 'string'
//
// and the statements of the serving layer:
//
//	REGISTER TABLE name FROM 'path.csv' ( INDEX column LATENCY duration )*
//	PREPARE name AS select-statement
//	EXECUTE name
//	INSERT INTO name VALUES ( literal (',' literal)* ) (',' ( ... ))*
//
// REGISTER, TABLE, INDEX, LATENCY, PREPARE, EXECUTE, INSERT, INTO, VALUES,
// and NULL are contextual words — they stay usable as column and table
// identifiers inside SELECT statements. Only SELECTs can be prepared:
// PREPARE names a statement so the server can cache its bound plan and
// execute it repeatedly without re-parsing or re-binding. INSERT rows are
// literals only (integers, quoted strings, NULL); schema validation happens
// at append time against the registered table.
//
// Parse errors report the byte offset of the offending token ("position
// N"); statements are single-line, so the offset is also the 0-based
// column.
package sql

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/tuple"
	"repro/internal/value"
)

// Statement is any parsed statement: *Stmt (a SELECT), *RegisterStmt
// (a catalog registration), *PrepareStmt, *ExecuteStmt, or *InsertStmt
// (a live append to a registered table).
type Statement interface{ isStatement() }

func (*Stmt) isStatement()         {}
func (*RegisterStmt) isStatement() {}
func (*PrepareStmt) isStatement()  {}
func (*ExecuteStmt) isStatement()  {}
func (*InsertStmt) isStatement()   {}

// InsertStmt is a parsed INSERT INTO statement: it appends literal rows to
// a registered catalog table. Execution (schema validation, table
// versioning) is the catalog owner's job, not the parser's.
type InsertStmt struct {
	// Table is the catalog name of the target table.
	Table string
	// Rows are the literal VALUES tuples in statement order, decoded into
	// one value slab. Neither they nor Table share bytes with the statement
	// text, so the catalog can keep them as they are.
	Rows []tuple.Row
}

// PrepareStmt is a parsed PREPARE name AS select statement: it asks the
// executor to remember the SELECT under the given name so later EXECUTEs
// skip parsing and (on the server) binding and engine construction.
type PrepareStmt struct {
	// Name is the name the statement is prepared under.
	Name string
	// Select is the prepared SELECT.
	Select *Stmt
}

// ExecuteStmt is a parsed EXECUTE name statement: it runs a previously
// prepared SELECT.
type ExecuteStmt struct {
	// Name is the prepared statement's name.
	Name string
}

// RegisterStmt is a parsed REGISTER TABLE statement: it asks the serving
// layer to load a CSV file into the shared catalog under the given name,
// optionally declaring asynchronous index access methods over single
// columns. Execution (file IO, schema inference) is the catalog owner's
// job, not the parser's.
type RegisterStmt struct {
	// Name is the catalog name the table registers under.
	Name string
	// Path is the CSV path as written (resolution against a data directory
	// is the executor's concern).
	Path string
	// Indexes declare index access methods to build over the loaded table.
	Indexes []RegisterIndex
}

// RegisterIndex is one INDEX clause of a REGISTER TABLE statement.
type RegisterIndex struct {
	// Col is the key column name.
	Col string
	// Latency is the modeled per-lookup round-trip cost.
	Latency time.Duration
}

// Stmt is a parsed SELECT statement. Its identifiers and string literals
// are slices of the statement text.
type Stmt struct {
	// Star is true for SELECT *.
	Star bool
	// Select lists the projected columns when Star is false.
	Select []ColRef
	// From lists the referenced sources with their binding aliases.
	From []TableRef
	// Where is the conjunction of comparisons (possibly empty).
	Where []Cond
	// OrderBy lists the result ordering keys (applied above the eddy: the
	// adaptive dataflow itself is unordered).
	OrderBy []OrderItem
	// Limit bounds the result count; negative means no limit.
	Limit int
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// TableRef is one FROM entry. Alias equals Source when no alias was given;
// two entries may share a Source (a self-join) but aliases must be unique.
type TableRef struct {
	Source string
	Alias  string
}

// ColRef names a column, optionally qualified by a FROM alias.
type ColRef struct {
	Table string // empty = unqualified
	Col   string
}

// String renders the reference.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// OperandKind classifies comparison operands.
type OperandKind uint8

const (
	// OpCol is a column reference.
	OpCol OperandKind = iota
	// OpInt is an integer literal.
	OpInt
	// OpStr is a string literal.
	OpStr
)

// Operand is one side of a comparison.
type Operand struct {
	Kind OperandKind
	Col  ColRef
	Int  int64
	Str  string
}

// Cond is one comparison in the WHERE conjunction. Op is the SQL spelling
// ("=", "<>", "<", "<=", ">", ">=").
type Cond struct {
	Left  Operand
	Op    string
	Right Operand
}

// parser pulls tokens from src one at a time.
type parser struct {
	src string
	off int   // where the token after tok starts
	tok token // the current token
	err error // the first lexical error; tok is then end of input
}

// Parse parses one SELECT statement.
func Parse(src string) (*Stmt, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Stmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement")
	}
	return sel, nil
}

// ParseStatement parses one statement of any kind: a SELECT (returned as
// *Stmt), REGISTER TABLE (*RegisterStmt), PREPARE (*PrepareStmt), EXECUTE
// (*ExecuteStmt) or INSERT (*InsertStmt). A lexical error anywhere in src is
// reported in preference to a syntax error before it.
func ParseStatement(src string) (Statement, error) {
	p := parser{src: src}
	p.next()
	var st Statement
	var err error
	switch {
	case p.atWord("REGISTER"):
		st, err = p.register()
	case p.atWord("PREPARE"):
		st, err = p.prepare()
	case p.atWord("EXECUTE"):
		st, err = p.execute()
	case p.atWord("INSERT"):
		st, err = p.insert()
	default:
		st, err = p.stmt()
	}
	if err == nil && !p.at(tokEOF, "") {
		err = p.errAt("unexpected %s after statement", p.tok)
	}
	for err != nil && p.err == nil && p.tok.kind != tokEOF {
		p.next()
	}
	if p.err != nil {
		return nil, p.err
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// next consumes the current token and scans the one after it.
func (p *parser) next() token {
	t := p.tok
	if p.err == nil {
		p.tok, p.off, p.err = scan(p.src, p.off)
	}
	return t
}

// errAt wraps a parse error with the byte offset of the current token.
func (p *parser) errAt(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) at(k tokKind, text string) bool {
	return p.tok.kind == k && (text == "" || p.tok.text == text)
}

// atWord reports whether the current token is the given contextual word —
// an identifier (or keyword) matched case-insensitively, so serving-layer
// words like TABLE stay usable as ordinary identifiers elsewhere.
func (p *parser) atWord(w string) bool {
	return (p.tok.kind == tokIdent || p.tok.kind == tokKeyword) && strings.EqualFold(p.tok.text, w)
}

func (p *parser) acceptWord(w string) bool {
	if p.atWord(w) {
		p.next()
		return true
	}
	return false
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text, what string) (token, error) {
	if p.at(k, text) {
		return p.next(), nil
	}
	return token{}, p.errAt("expected %s, got %s", what, p.tok)
}

// list parses item (sep item)* into an exact-size slice. The items collect
// in a stack array first, so a list of up to 16 costs one allocation.
func list[T any](p *parser, sepKind tokKind, sep string, item func() (T, error)) ([]T, error) {
	var buf [16]T
	items := buf[:0]
	for {
		x, err := item()
		if err != nil {
			return nil, err
		}
		items = append(items, x)
		if !p.accept(sepKind, sep) {
			return slices.Clone(items), nil
		}
	}
}

// register parses REGISTER TABLE name FROM 'path' (INDEX col LATENCY d)*.
// The leading REGISTER word has been recognized but not consumed. The
// catalog keeps the name, so it is copied out of the statement text.
func (p *parser) register() (*RegisterStmt, error) {
	p.next() // REGISTER
	if !p.acceptWord("TABLE") {
		return nil, p.errAt("expected TABLE, got %s", p.tok)
	}
	name, err := p.expect(tokIdent, "", "table name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM", "FROM"); err != nil {
		return nil, err
	}
	path, err := p.expect(tokString, "", "quoted CSV path")
	if err != nil {
		return nil, err
	}
	st := &RegisterStmt{Name: strings.Clone(name.text), Path: path.text}
	for p.acceptWord("INDEX") {
		col, err := p.expect(tokIdent, "", "index column")
		if err != nil {
			return nil, err
		}
		if !p.acceptWord("LATENCY") {
			return nil, p.errAt("expected LATENCY, got %s", p.tok)
		}
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		st.Indexes = append(st.Indexes, RegisterIndex{Col: col.text, Latency: d})
	}
	return st, nil
}

// prepare parses PREPARE name AS select. The leading PREPARE word has been
// recognized but not consumed. Only SELECTs can be prepared: a REGISTER
// mutates the catalog and has nothing reusable to cache.
func (p *parser) prepare() (*PrepareStmt, error) {
	p.next() // PREPARE
	name, err := p.expect(tokIdent, "", "prepared statement name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "AS", "AS"); err != nil {
		return nil, err
	}
	if p.atWord("REGISTER") {
		return nil, p.errAt("cannot prepare a REGISTER statement (only SELECT)")
	}
	sel, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name.text, Select: sel}, nil
}

// execute parses EXECUTE name. The leading EXECUTE word has been
// recognized but not consumed.
func (p *parser) execute() (*ExecuteStmt, error) {
	p.next() // EXECUTE
	name, err := p.expect(tokIdent, "", "prepared statement name")
	if err != nil {
		return nil, err
	}
	return &ExecuteStmt{Name: name.text}, nil
}

// insert parses INSERT INTO name VALUES (lit, ...)(, (lit, ...))*. The
// leading INSERT word has been recognized but not consumed.
func (p *parser) insert() (*InsertStmt, error) {
	p.next() // INSERT
	if !p.acceptWord("INTO") {
		return nil, p.errAt("expected INTO, got %s", p.tok)
	}
	name, err := p.expect(tokIdent, "", "table name")
	if err != nil {
		return nil, err
	}
	if !p.acceptWord("VALUES") {
		return nil, p.errAt("expected VALUES, got %s", p.tok)
	}
	var buf [64]value.V
	vals, arity, rows := buf[:0], 0, 0
	for {
		if _, err := p.expect(tokSymbol, "(", "'('"); err != nil {
			return nil, err
		}
		start := len(vals)
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		closing := p.tok
		if _, err := p.expect(tokSymbol, ")", "')'"); err != nil {
			return nil, err
		}
		if n := len(vals) - start; rows == 0 {
			arity = n
		} else if n != arity {
			return nil, fmt.Errorf("sql: position %d: VALUES row %d has %d values, want %d",
				closing.pos, rows+1, n, arity)
		}
		rows++
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	// The rows slice value slabs of at most 16 values (512 bytes) where rows
	// are that narrow: a larger object holding pointers carries an allocation
	// header and rounds up a size class, and the table keeps the slabs.
	per := max(1, 16/arity) * arity
	st := &InsertStmt{Table: strings.Clone(name.text), Rows: make([]tuple.Row, rows)}
	var slab []value.V
	for i := range st.Rows {
		if len(slab) == 0 {
			slab = slices.Clone(vals[i*arity : min(len(vals), i*arity+per)])
		}
		st.Rows[i], slab = slab[:arity:arity], slab[arity:]
	}
	return st, nil
}

// literal parses one INSERT value: an integer, a quoted string, or NULL.
// Column references are not literals — an INSERT row carries data, not
// expressions. The catalog keeps the value, so a string is copied out of the
// statement text.
func (p *parser) literal() (value.V, error) {
	t := p.tok
	switch {
	case t.kind == tokNumber:
		p.next()
		return value.NewInt(t.num), nil
	case t.kind == tokString:
		p.next()
		return value.NewStr(strings.Clone(t.text)), nil
	case p.atWord("NULL"):
		p.next()
		return value.NewNull(), nil
	default:
		return value.V{}, p.errAt("expected literal value, got %s", t)
	}
}

// duration parses a latency: either a quoted Go duration ('200ms') or a
// number immediately followed by its unit (200ms, which lexes as the number
// 200 and the identifier ms).
func (p *parser) duration() (time.Duration, error) {
	t := p.tok
	switch t.kind {
	case tokString:
		p.next()
		d, err := time.ParseDuration(t.text)
		if err != nil || d < 0 {
			return 0, fmt.Errorf("sql: position %d: bad duration %q (want a non-negative Go duration)", t.pos, t.text)
		}
		return d, nil
	case tokNumber:
		p.next()
		if p.tok.kind != tokIdent {
			return 0, fmt.Errorf("sql: position %d: duration %s needs a unit (e.g. %sms)", t.pos, t.text, t.text)
		}
		unit := p.next()
		d, err := time.ParseDuration(t.text + unit.text)
		if err != nil || d < 0 {
			return 0, fmt.Errorf("sql: position %d: bad duration %q (want a non-negative Go duration)", t.pos, t.text+unit.text)
		}
		return d, nil
	default:
		return 0, p.errAt("expected duration, got %s", t)
	}
}

func (p *parser) stmt() (*Stmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT", "SELECT"); err != nil {
		return nil, err
	}
	st := &Stmt{Limit: -1}
	var err error
	if p.accept(tokSymbol, "*") {
		st.Star = true
	} else if st.Select, err = list(p, tokSymbol, ",", p.colRef); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "FROM", "FROM"); err != nil {
		return nil, err
	}
	if st.From, err = list(p, tokSymbol, ",", p.tableRef); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "WHERE") {
		if st.Where, err = list(p, tokKeyword, "AND", p.cond); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY", "BY"); err != nil {
			return nil, err
		}
		if st.OrderBy, err = list(p, tokSymbol, ",", p.orderItem); err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		n, err := p.expect(tokNumber, "", "limit count")
		if err != nil {
			return nil, err
		}
		if n.text[0] == '-' {
			return nil, fmt.Errorf("sql: position %d: negative LIMIT", n.pos)
		}
		st.Limit = int(n.num)
	}
	return st, nil
}

func (p *parser) tableRef() (TableRef, error) {
	name, err := p.expect(tokIdent, "", "table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Source: name.text, Alias: name.text}
	if p.accept(tokKeyword, "AS") {
		al, err := p.expect(tokIdent, "", "alias")
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = al.text
	} else if p.tok.kind == tokIdent { // implicit alias: FROM R r
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) orderItem() (OrderItem, error) {
	c, err := p.colRef()
	if err != nil {
		return OrderItem{}, err
	}
	item := OrderItem{Col: c, Desc: p.accept(tokKeyword, "DESC")}
	if !item.Desc {
		p.accept(tokKeyword, "ASC")
	}
	return item, nil
}

func (p *parser) colRef() (ColRef, error) {
	id, err := p.expect(tokIdent, "", "column reference")
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		col, err := p.expect(tokIdent, "", "column name")
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: id.text, Col: col.text}, nil
	}
	return ColRef{Col: id.text}, nil
}

func (p *parser) operand() (Operand, error) {
	t := p.tok
	switch t.kind {
	case tokNumber:
		p.next()
		return Operand{Kind: OpInt, Int: t.num}, nil
	case tokString:
		p.next()
		return Operand{Kind: OpStr, Str: t.text}, nil
	case tokIdent:
		c, err := p.colRef()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpCol, Col: c}, nil
	default:
		return Operand{}, p.errAt("expected operand, got %s", t)
	}
}

func (p *parser) cond() (Cond, error) {
	l, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	op, err := p.expect(tokOp, "", "comparison operator")
	if err != nil {
		return Cond{}, err
	}
	r, err := p.operand()
	if err != nil {
		return Cond{}, err
	}
	return Cond{Left: l, Op: op.text, Right: r}, nil
}
