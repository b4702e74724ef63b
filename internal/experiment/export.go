package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"artery/internal/core"
)

// Export formats for regenerated tables, used by cmd/artery-bench -format:
// downstream plotting scripts consume CSV or JSON rather than the aligned
// text rendering.

// WriteCSV emits the table as CSV: a header row, then the data rows; notes
// become trailing comment-style rows prefixed with "#".
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{fmt.Sprintf("# %s — %s", t.ID, t.Title)}
	if err := cw.Write(meta); err != nil {
		return fmt.Errorf("experiment: csv export: %w", err)
	}
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiment: csv export: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiment: csv export: %w", err)
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# " + n}); err != nil {
			return fmt.Errorf("experiment: csv export: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// TableSchemaVersion is the current version of the JSON wire form.
// Version 1 (written by earlier releases without a "schema_version"
// field) carried only the rendered grid; version 2 adds the
// machine-readable per-stage latency breakdown ("stages").
const TableSchemaVersion = 2

// jsonTable is the JSON wire form of a Table.
type jsonTable struct {
	SchemaVersion int                 `json:"schema_version,omitempty"`
	ID            string              `json:"id"`
	Title         string              `json:"title"`
	Header        []string            `json:"header"`
	Rows          [][]string          `json:"rows"`
	Notes         []string            `json:"notes,omitempty"`
	Stages        []core.StageLatency `json:"stages,omitempty"`
}

// WriteJSON emits the table as a JSON object (schema version 2).
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(jsonTable{
		SchemaVersion: TableSchemaVersion,
		ID:            t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows,
		Notes: t.Notes, Stages: t.Stages,
	}); err != nil {
		return fmt.Errorf("experiment: json export: %w", err)
	}
	return nil
}

// WriteAs dispatches on format: "text", "csv" or "json".
func (t *Table) WriteAs(w io.Writer, format string) error {
	switch strings.ToLower(format) {
	case "", "text":
		t.Fprint(w)
		return nil
	case "csv":
		return t.WriteCSV(w)
	case "json":
		return t.WriteJSON(w)
	default:
		return fmt.Errorf("experiment: unknown export format %q", format)
	}
}
