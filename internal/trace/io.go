package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// WriteJSON streams the trace as JSON to w.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// ReadJSON decodes a trace from JSON and validates it.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// SaveFile writes the trace to path. A ".gz" suffix enables gzip
// compression, which typically shrinks a trace by ~10x.
func (t *Trace) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: save: %w", cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	var w io.Writer = bw
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(bw)
		w = gz
	}
	if err := t.WriteJSON(w); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return fmt.Errorf("trace: save: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	return nil
}

// LoadFile reads a trace written by SaveFile.
func LoadFile(path string) (_ *Trace, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: load: %w", cerr)
		}
	}()
	var r io.Reader = bufio.NewReader(f)
	if strings.HasSuffix(path, ".gz") {
		gz, gerr := gzip.NewReader(r)
		if gerr != nil {
			return nil, fmt.Errorf("trace: load: %w", gerr)
		}
		defer gz.Close()
		r = gz
	}
	return ReadJSON(r)
}

// inventoryHeader is the column layout of the CSV inventory export.
var inventoryHeader = []string{
	"vm_id", "subscription", "service", "cloud", "region",
	"cluster", "node", "rack", "cores", "memory_gb",
	"created_step", "deleted_step", "pattern",
}

// WriteInventoryCSV exports one row per VM, in the spirit of the public
// Azure VM traces (ID, ownership, size, lifetime, placement).
func (t *Trace) WriteInventoryCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(inventoryHeader); err != nil {
		return fmt.Errorf("trace: inventory csv: %w", err)
	}
	for i := range t.VMs {
		v := &t.VMs[i]
		row := []string{
			strconv.FormatInt(int64(v.ID), 10),
			string(v.Subscription),
			v.Service,
			v.Cloud.String(),
			v.Region,
			string(v.Node.Cluster),
			strconv.Itoa(v.Node.Index),
			strconv.Itoa(v.Rack),
			strconv.Itoa(v.Size.Cores),
			strconv.Itoa(v.Size.MemoryGB),
			strconv.Itoa(v.CreatedStep),
			strconv.Itoa(v.DeletedStep),
			v.Usage.Pattern.String(),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: inventory csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: inventory csv: %w", err)
	}
	return nil
}

// WriteUtilizationCSV exports the materialized five-minute utilization
// series of up to maxVMs VMs (0 means all), one row per VM: vm_id followed
// by one column per step. This mirrors the paper's "average resource
// utilization of VMs (reported every 5 minutes)".
func (t *Trace) WriteUtilizationCSV(w io.Writer, maxVMs int) error {
	cw := csv.NewWriter(w)
	header := make([]string, 1, t.Grid.N+1)
	header[0] = "vm_id"
	for s := 0; s < t.Grid.N; s++ {
		header = append(header, "t"+strconv.Itoa(s))
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: utilization csv: %w", err)
	}
	n := len(t.VMs)
	if maxVMs > 0 && maxVMs < n {
		n = maxVMs
	}
	row := make([]string, t.Grid.N+1)
	for i := 0; i < n; i++ {
		v := &t.VMs[i]
		row[0] = strconv.FormatInt(int64(v.ID), 10)
		for s := 0; s < t.Grid.N; s++ {
			if !v.AliveAt(s) {
				row[s+1] = ""
				continue
			}
			row[s+1] = strconv.FormatFloat(v.Usage.At(t.Grid, s), 'f', 4, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: utilization csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: utilization csv: %w", err)
	}
	return nil
}

// ExportDir writes the trace bundle (trace.json.gz, inventory.csv) into
// dir, creating it if necessary.
func (t *Trace) ExportDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: export: %w", err)
	}
	if err := t.SaveFile(filepath.Join(dir, "trace.json.gz")); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "inventory.csv"))
	if err != nil {
		return fmt.Errorf("trace: export: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := t.WriteInventoryCSV(bw); err != nil {
		f.Close()
		return err
	}
	err = bw.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: export: %w", err)
	}
	return nil
}
