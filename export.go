package cloudlens

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"cloudlens/internal/core"
	"cloudlens/internal/stats"
)

// ExportCSV writes every figure's underlying data into dir, one CSV per
// figure (fig1a.csv ... fig7c.csv), so the curves can be re-plotted with
// any external tool. The directory is created if needed.
func (c *Characterization) ExportCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("export csv: %w", err)
	}
	writers := []struct {
		name  string
		write func(*csv.Writer) error
	}{
		{name: "fig1a.csv", write: c.exportFig1a},
		{name: "fig1b.csv", write: c.exportFig1b},
		{name: "fig2.csv", write: c.exportFig2},
		{name: "fig3a.csv", write: c.exportFig3a},
		{name: "fig3b.csv", write: c.exportFig3b},
		{name: "fig3c.csv", write: c.exportFig3c},
		{name: "fig3d.csv", write: c.exportFig3d},
		{name: "fig4a.csv", write: c.exportFig4a},
		{name: "fig4b.csv", write: c.exportFig4b},
		{name: "fig5_samples.csv", write: c.exportFig5Samples},
		{name: "fig5d.csv", write: c.exportFig5d},
		{name: "fig6_weekly.csv", write: c.exportFig6Weekly},
		{name: "fig6_daily.csv", write: c.exportFig6Daily},
		{name: "fig7a.csv", write: c.exportFig7a},
		{name: "fig7b.csv", write: c.exportFig7b},
		{name: "fig7c.csv", write: c.exportFig7c},
	}
	for _, w := range writers {
		if err := writeCSVFile(filepath.Join(dir, w.name), w.write); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVFile(path string, write func(*csv.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export csv: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("export csv: %w", cerr)
		}
	}()
	cw := csv.NewWriter(f)
	if err := write(cw); err != nil {
		return fmt.Errorf("export csv %s: %w", filepath.Base(path), err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("export csv %s: %w", filepath.Base(path), err)
	}
	return nil
}

func fs(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// writeCDF tabulates two per-cloud ECDFs as (cloud, x, p) rows.
func writeCDF(cw *csv.Writer, private, public *stats.ECDF, xName string) error {
	if err := cw.Write([]string{"cloud", xName, "cum_prob"}); err != nil {
		return err
	}
	for _, pair := range []struct {
		cloud string
		cdf   *stats.ECDF
	}{{"private", private}, {"public", public}} {
		for _, pt := range pair.cdf.Points(200) {
			if err := cw.Write([]string{pair.cloud, fs(pt.X), fs(pt.Y)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeriesPair exports two aligned per-cloud series as (index, private,
// public) rows.
func writeSeriesPair(cw *csv.Writer, idxName string, private, public []float64) error {
	if err := cw.Write([]string{idxName, "private", "public"}); err != nil {
		return err
	}
	n := len(private)
	if len(public) > n {
		n = len(public)
	}
	at := func(xs []float64, i int) string {
		if i < len(xs) {
			return fs(xs[i])
		}
		return ""
	}
	for i := 0; i < n; i++ {
		if err := cw.Write([]string{strconv.Itoa(i), at(private, i), at(public, i)}); err != nil {
			return err
		}
	}
	return nil
}

func (c *Characterization) exportFig1a(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig1a.CDF.Private, c.Fig1a.CDF.Public, "vms_per_subscription")
}

func (c *Characterization) exportFig1b(cw *csv.Writer) error {
	if err := cw.Write([]string{"cloud", "low", "q1", "median", "q3", "high", "n"}); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		b := c.Fig1b.Box.Get(cloud)
		if err := cw.Write([]string{cloud.String(),
			fs(b.Low), fs(b.Q1), fs(b.Median), fs(b.Q3), fs(b.High),
			strconv.Itoa(b.N)}); err != nil {
			return err
		}
	}
	return nil
}

func (c *Characterization) exportFig2(cw *csv.Writer) error {
	if err := cw.Write([]string{"cloud", "log2_cores_bin", "log2_memory_bin", "density"}); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		h := c.Fig2.Heat.Get(cloud)
		norm := h.Normalized()
		for x := range norm {
			for y := range norm[x] {
				if norm[x][y] == 0 {
					continue
				}
				if err := cw.Write([]string{cloud.String(),
					strconv.Itoa(x), strconv.Itoa(y), fs(norm[x][y])}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (c *Characterization) exportFig3a(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig3a.CDF.Private, c.Fig3a.CDF.Public, "lifetime_minutes")
}

func (c *Characterization) exportFig3b(cw *csv.Writer) error {
	return writeSeriesPair(cw, "hour", c.Fig3b.Counts.Private, c.Fig3b.Counts.Public)
}

func (c *Characterization) exportFig3c(cw *csv.Writer) error {
	return writeSeriesPair(cw, "hour", c.Fig3c.Creations.Private, c.Fig3c.Creations.Public)
}

func (c *Characterization) exportFig3d(cw *csv.Writer) error {
	if err := cw.Write([]string{"cloud", "region", "creation_cv"}); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		// Regions by name: map order would make every export differ.
		perRegion := c.Fig3d.PerRegionCV.Get(cloud)
		regions := make([]string, 0, len(perRegion))
		for region := range perRegion {
			regions = append(regions, region)
		}
		sort.Strings(regions)
		for _, region := range regions {
			if err := cw.Write([]string{cloud.String(), region, fs(perRegion[region])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Characterization) exportFig4a(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig4a.CDF.Private, c.Fig4a.CDF.Public, "regions_per_subscription")
}

func (c *Characterization) exportFig4b(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig4b.CDF.Private, c.Fig4b.CDF.Public, "regions_per_subscription")
}

func (c *Characterization) exportFig5Samples(cw *csv.Writer) error {
	if err := cw.Write([]string{"pattern", "vm", "step", "utilization"}); err != nil {
		return err
	}
	for _, s := range c.Fig5Samples.Samples {
		for i, v := range s.Series {
			if err := cw.Write([]string{s.Pattern.String(),
				strconv.FormatInt(int64(s.VM), 10), strconv.Itoa(i), fs(v)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Characterization) exportFig5d(cw *csv.Writer) error {
	if err := cw.Write([]string{"cloud", "pattern", "share"}); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		share := c.Fig5d.Share.Get(cloud)
		for _, p := range core.Patterns() {
			if err := cw.Write([]string{cloud.String(), p.String(), fs(share[p])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeBands(cw *csv.Writer, idxName string, get func(cloud core.Cloud) Band) error {
	if err := cw.Write([]string{"cloud", idxName, "p25", "p50", "p75", "p95"}); err != nil {
		return err
	}
	for _, cloud := range core.Clouds() {
		b := get(cloud)
		for i := range b.P50 {
			if err := cw.Write([]string{cloud.String(), strconv.Itoa(i),
				fs(b.P25[i]), fs(b.P50[i]), fs(b.P75[i]), fs(b.P95[i])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Characterization) exportFig6Weekly(cw *csv.Writer) error {
	return writeBands(cw, "hour", func(cloud core.Cloud) Band { return c.Fig6Weekly.Bands.Get(cloud) })
}

func (c *Characterization) exportFig6Daily(cw *csv.Writer) error {
	return writeBands(cw, "hour_of_day", func(cloud core.Cloud) Band { return c.Fig6Daily.Bands.Get(cloud) })
}

func (c *Characterization) exportFig7a(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig7a.CDF.Private, c.Fig7a.CDF.Public, "vm_node_correlation")
}

func (c *Characterization) exportFig7b(cw *csv.Writer) error {
	return writeCDF(cw, c.Fig7b.CDF.Private, c.Fig7b.CDF.Public, "region_pair_correlation")
}

func (c *Characterization) exportFig7c(cw *csv.Writer) error {
	if err := cw.Write([]string{"region", "step", "utilization"}); err != nil {
		return err
	}
	for _, region := range c.Fig7c.Regions {
		for i, v := range c.Fig7c.Series[region] {
			if err := cw.Write([]string{region, strconv.Itoa(i), fs(v)}); err != nil {
				return err
			}
		}
	}
	return nil
}
