package exp

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// JSON renders the report as indented JSON (stable field order via the
// struct definition), for downstream plotting pipelines.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteFiles writes the report into dir as <id>.json and <id>.csv (the CSV
// holds the header and rows only; key values and notes live in the JSON).
func (r *Report) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	js, err := r.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.ID+".json"), js, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	rows := r.Rows
	if len(r.Header) > 0 {
		rows = append([][]string{r.Header}, rows...)
	}
	return errors.Join(csv.NewWriter(f).WriteAll(rows), f.Close())
}

// Summary returns a one-line digest of the report's key values.
func (r *Report) Summary() string {
	var parts []string
	for k, v := range r.Values {
		parts = append(parts, fmt.Sprintf("%s=%.4g", k, v))
	}
	if len(parts) == 0 {
		return r.Title
	}
	return r.ID + ": " + strings.Join(parts, " ")
}
