package xmlrdb

// Benchmarks: one testing.B benchmark per experiment table/figure of
// EXPERIMENTS.md, so every reported number can be regenerated either via
// `go test -bench=.` or via `go run ./cmd/xmlbench`.

import (
	"fmt"
	"strings"
	"testing"

	"xmlrdb/internal/baselines"
	"xmlrdb/internal/core"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/ermap"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/reconstruct"
	"xmlrdb/internal/shred"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// BenchmarkParseDTD measures DTD parsing (substrate cost).
func BenchmarkParseDTD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dtd.Parse(paper.Example1DTD); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseXML measures document parsing (substrate cost).
func BenchmarkParseXML(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.Parse(paper.ArticleXML); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapDTD is experiment E3: Figure-1 pipeline cost vs DTD size.
func BenchmarkMapDTD(b *testing.B) {
	for _, n := range []int{10, 50, 250} {
		d := wgen.GenerateDTD(wgen.DTDConfig{
			Elements: n, Seed: int64(n), AttrsPerElement: 2,
			IDProb: 0.2, IDREFProb: 0.2, OptionalProb: 0.3, RepeatProb: 0.3,
			ChoiceProb: 0.4, Levels: 6,
		})
		b.Run(fmt.Sprintf("elements=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Map(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCorpus builds a fixed synthetic corpus once per benchmark.
func benchCorpus(b *testing.B, n int) (*dtd.DTD, []*xmltree.Document) {
	b.Helper()
	d := wgen.GenerateDTD(wgen.DTDConfig{
		Elements: 30, Seed: 5, AttrsPerElement: 2,
		IDProb: 0.3, IDREFProb: 0.3, OptionalProb: 0.3, RepeatProb: 0.3, Levels: 5,
	})
	docs, err := wgen.Corpus(d, n, 5, wgen.DocConfig{MaxRepeat: 3})
	if err != nil {
		b.Fatal(err)
	}
	return d, docs
}

// BenchmarkLoad is experiment E5: loading throughput per mapping.
func BenchmarkLoad(b *testing.B) {
	d, docs := benchCorpus(b, 50)
	maps, err := baselines.All(d)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range maps {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := engine.Open()
				if err := db.CreateSchema(m.Schema()); err != nil {
					b.Fatal(err)
				}
				fresh, err := baselines.All(d)
				if err != nil {
					b.Fatal(err)
				}
				var mm baselines.Mapping
				for _, c := range fresh {
					if c.Name() == m.Name() {
						mm = c
					}
				}
				b.StartTimer()
				for di, doc := range docs {
					if _, err := mm.Load(db, doc, fmt.Sprintf("d%d", di)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkParallelLoad is experiment E5b: corpus-loading throughput of
// the loader as the worker count grows. workers=1 is the baseline (the
// same path LoadDocument takes); higher counts show how far per-table
// locking lets loads overlap.
func BenchmarkParallelLoad(b *testing.B) {
	d, docs := benchCorpus(b, 200)
	res, err := core.Map(d)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fresh := func(b *testing.B) *shred.Loader {
		b.Helper()
		db := engine.Open()
		if err := db.CreateSchema(m.Schema); err != nil {
			b.Fatal(err)
		}
		loader, err := shred.NewLoader(res, m, db)
		if err != nil {
			b.Fatal(err)
		}
		return loader
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				loader := fresh(b)
				b.StartTimer()
				if _, err := loader.LoadCorpus(docs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryDepth is experiment E6: path-query latency vs depth per
// mapping (chain DTD).
func BenchmarkQueryDepth(b *testing.B) {
	const levels = 6
	var sb strings.Builder
	for i := 1; i <= levels; i++ {
		if i < levels {
			fmt.Fprintf(&sb, "<!ELEMENT c%d (c%d+)>", i, i+1)
		} else {
			fmt.Fprintf(&sb, "<!ELEMENT c%d (#PCDATA)>", i)
		}
	}
	d := dtd.MustParse(sb.String())
	var xb strings.Builder
	var emit func(level, fanout int)
	emit = func(level, fanout int) {
		fmt.Fprintf(&xb, "<c%d>", level)
		if level == levels {
			xb.WriteString("leaf")
		} else {
			for f := 0; f < fanout; f++ {
				emit(level+1, fanout)
			}
		}
		fmt.Fprintf(&xb, "</c%d>", level)
	}
	emit(1, 2)
	xmlSrc := xb.String()

	maps, err := baselines.All(d)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range maps {
		db := engine.Open()
		if err := db.CreateSchema(m.Schema()); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			doc := xmltree.MustParse(xmlSrc)
			if _, err := m.Load(db, doc, fmt.Sprintf("d%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		tr := m.Translator()
		for _, depth := range []int{1, 3, 6} {
			parts := make([]string, depth)
			for i := range parts {
				parts[i] = fmt.Sprintf("c%d", i+1)
			}
			q := pathquery.MustParse("/" + strings.Join(parts, "/"))
			trans, err := tr.Translate(q)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/depth=%d", m.Name(), depth), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pathquery.Execute(db, trans); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRoundTrip is the cost side of experiment E7: load plus
// reconstruct plus verify for one paper document.
func BenchmarkRoundTrip(b *testing.B) {
	p, err := Open(paper.Example1DTD, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if err := p.VerifyRoundTrip(paper.ArticleXML, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruct is experiment E8: rebuild time for a loaded
// document.
func BenchmarkReconstruct(b *testing.B) {
	for _, fanout := range []int{2, 4} {
		const levels = 6
		var sb strings.Builder
		for i := 1; i <= levels; i++ {
			if i < levels {
				fmt.Fprintf(&sb, "<!ELEMENT c%d (c%d+)>", i, i+1)
			} else {
				fmt.Fprintf(&sb, "<!ELEMENT c%d (#PCDATA)>", i)
			}
		}
		d := dtd.MustParse(sb.String())
		res, err := core.Map(d)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ermap.Build(res.Model, ermap.Options{})
		if err != nil {
			b.Fatal(err)
		}
		db := engine.Open()
		if err := db.CreateSchema(m.Schema); err != nil {
			b.Fatal(err)
		}
		loader, err := shred.NewLoader(res, m, db)
		if err != nil {
			b.Fatal(err)
		}
		var xb strings.Builder
		var emit func(level int)
		var count int
		emit = func(level int) {
			count++
			fmt.Fprintf(&xb, "<c%d>", level)
			if level == levels {
				xb.WriteString("leaf")
			} else {
				for f := 0; f < fanout; f++ {
					emit(level + 1)
				}
			}
			fmt.Fprintf(&xb, "</c%d>", level)
		}
		emit(1)
		st, err := loader.LoadXML(xb.String(), "big")
		if err != nil {
			b.Fatal(err)
		}
		recon := reconstruct.New(res, m, db)
		b.Run(fmt.Sprintf("elements=%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := recon.Document(st.DocID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRefJoin is experiment E11: point lookups with and without a
// secondary index.
func BenchmarkRefJoin(b *testing.B) {
	p, err := Open(`
<!ELEMENT net (node*)>
<!ELEMENT node EMPTY>
<!ATTLIST node id ID #REQUIRED kind CDATA #REQUIRED>
`, Config{})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("<net>")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, `<node id="n%d" kind="k%d"/>`, i, i%100)
	}
	sb.WriteString("</net>")
	if _, err := p.LoadXML(sb.String(), "net"); err != nil {
		b.Fatal(err)
	}
	const sql = `SELECT id FROM e_node WHERE a_kind = 'k42'`
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := p.DB.CreateIndex("ix_kind", "e_node", []string{"a_kind"}, false); err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRangeScan measures the ordered-index extension: range
// predicates over a shredded attribute column (part of E11).
func BenchmarkRangeScan(b *testing.B) {
	p, err := Open(`
<!ELEMENT net (node*)>
<!ELEMENT node EMPTY>
<!ATTLIST node id ID #REQUIRED kind CDATA #REQUIRED>
`, Config{})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("<net>")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, `<node id="n%d" kind="k%d"/>`, i, i%100)
	}
	sb.WriteString("</net>")
	if _, err := p.LoadXML(sb.String(), "net"); err != nil {
		b.Fatal(err)
	}
	const sql = `SELECT COUNT(*) FROM e_node WHERE a_id >= 'n100' AND a_id < 'n101'`
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := p.DB.CreateOrderedIndex("ox", "e_node", "a_id"); err != nil {
		b.Fatal(err)
	}
	b.Run("ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.SQL(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPathTranslation measures translation alone (E9's cost proxy).
func BenchmarkPathTranslation(b *testing.B) {
	p, err := Open(paper.Example1DTD, Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := p.TranslatePath("/article/author/name"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShredPaperDoc measures single-document shredding on the
// paper's article fixture.
func BenchmarkShredPaperDoc(b *testing.B) {
	res, err := core.Map(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		b.Fatal(err)
	}
	m, err := ermap.Build(res.Model, ermap.Options{})
	if err != nil {
		b.Fatal(err)
	}
	doc := xmltree.MustParse(paper.ArticleXML)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := engine.Open()
		if err := db.CreateSchema(m.Schema); err != nil {
			b.Fatal(err)
		}
		loader, err := shred.NewLoader(res, m, db)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := loader.LoadDocument(doc, "a"); err != nil {
			b.Fatal(err)
		}
	}
}
