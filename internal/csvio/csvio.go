// Package csvio imports and exports tables as CSV — the practical
// loading path for a downstream user. The header row declares the schema
// as name:type cells (types: int, float, string), so a file round-trips
// without a side channel:
//
//	id:int,customer:string,amount:float
//	1,alice,9.99
package csvio

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hyrisenv/internal/shard"
	"hyrisenv/internal/storage"
)

// typeNames maps header annotations to column types.
var typeNames = map[string]storage.ColType{
	"int":    storage.TypeInt64,
	"float":  storage.TypeFloat64,
	"string": storage.TypeString,
}

func typeName(t storage.ColType) string {
	switch t {
	case storage.TypeInt64:
		return "int"
	case storage.TypeFloat64:
		return "float"
	default:
		return "string"
	}
}

// ParseHeader decodes a name:type header row into a schema.
func ParseHeader(cells []string) (storage.Schema, error) {
	defs := make([]storage.ColumnDef, len(cells))
	for i, c := range cells {
		name, typ, ok := strings.Cut(strings.TrimSpace(c), ":")
		if !ok {
			return storage.Schema{}, fmt.Errorf("csvio: header cell %q is not name:type", c)
		}
		ct, ok := typeNames[typ]
		if !ok {
			return storage.Schema{}, fmt.Errorf("csvio: unknown type %q (want int, float or string)", typ)
		}
		defs[i] = storage.ColumnDef{Name: name, Type: ct}
	}
	return storage.NewSchema(defs...)
}

// parseCell converts one CSV cell to a typed value.
func parseCell(cell string, t storage.ColType) (storage.Value, error) {
	switch t {
	case storage.TypeInt64:
		v, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("csvio: bad int %q: %w", cell, err)
		}
		return storage.Int(v), nil
	case storage.TypeFloat64:
		v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		if err != nil {
			return storage.Value{}, fmt.Errorf("csvio: bad float %q: %w", cell, err)
		}
		return storage.Float(v), nil
	default:
		return storage.Str(cell), nil
	}
}

// Import creates (or appends to) the named table from CSV data. The
// header row declares the schema; rows load in transactions of batch
// (default 1000). indexed names columns to index when the table is
// created. Returns the table and the number of rows imported.
func Import(e *shard.Engine, table string, r io.Reader, batch int, indexed ...string) (*shard.Table, int, error) {
	if batch <= 0 {
		batch = 1000
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("csvio: reading header: %w", err)
	}
	schema, err := ParseHeader(header)
	if err != nil {
		return nil, 0, err
	}

	tbl, err := e.Table(table)
	if err != nil {
		tbl, err = e.CreateTable(table, schema, indexed...)
		if err != nil {
			return nil, 0, err
		}
	} else if tbl.Schema.NumCols() != schema.NumCols() {
		return nil, 0, fmt.Errorf("csvio: table %s exists with %d columns, file has %d",
			table, tbl.Schema.NumCols(), schema.NumCols())
	}

	imported := 0
	tx := e.Begin()
	inBatch := 0
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			tx.Abort()
			return nil, imported, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		if len(rec) != schema.NumCols() {
			tx.Abort()
			return nil, imported, fmt.Errorf("csvio: line %d has %d cells, want %d", line, len(rec), schema.NumCols())
		}
		vals := make([]storage.Value, len(rec))
		for i, cell := range rec {
			v, err := parseCell(cell, schema.Cols[i].Type)
			if err != nil {
				tx.Abort()
				return nil, imported, fmt.Errorf("csvio: line %d column %s: %w", line, schema.Cols[i].Name, err)
			}
			vals[i] = v
		}
		if _, err := tx.Insert(tbl, vals); err != nil {
			tx.Abort()
			return nil, imported, err
		}
		inBatch++
		if inBatch >= batch {
			if err := tx.Commit(); err != nil {
				return nil, imported, err
			}
			imported += inBatch
			inBatch = 0
			tx = e.Begin()
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, imported, err
	}
	imported += inBatch
	return tbl, imported, nil
}

// Export writes the rows visible to tx as CSV with a name:type header.
func Export(w io.Writer, tx *shard.Tx, tbl *shard.Table) (int, error) {
	cw := csv.NewWriter(w)
	header := make([]string, tbl.Schema.NumCols())
	for i, c := range tbl.Schema.Cols {
		header[i] = c.Name + ":" + typeName(c.Type)
	}
	if err := cw.Write(header); err != nil {
		return 0, err
	}
	rows, err := tx.Select(context.Background(), tbl)
	if err != nil {
		return 0, err
	}
	cells := make([]string, tbl.Schema.NumCols())
	for _, r := range rows {
		for c := range cells {
			cells[c] = tbl.Value(c, r).String()
		}
		if err := cw.Write(cells); err != nil {
			return 0, err
		}
	}
	cw.Flush()
	return len(rows), cw.Error()
}
