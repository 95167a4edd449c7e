package xmlrdb_test

import (
	"fmt"

	"xmlrdb"
	"xmlrdb/internal/baselines"
	"xmlrdb/internal/dtd"
	"xmlrdb/internal/engine"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/pathquery"
	"xmlrdb/internal/xmltree"
)

// Example maps a DTD, loads a document, queries it, and reconstructs it.
func Example() {
	const dtd = `
<!ELEMENT order (item+)>
<!ATTLIST order id ID #REQUIRED>
<!ELEMENT item (sku, qty)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
`
	p, err := xmlrdb.Open(dtd, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	docID, err := p.LoadXML(
		`<order id="o1"><item><sku>A-1</sku><qty>2</qty></item><item><sku>B-9</sku><qty>1</qty></item></order>`,
		"order-1")
	if err != nil {
		panic(err)
	}
	rows, err := p.Query("/order/item")
	if err != nil {
		panic(err)
	}
	fmt.Println("items:", len(rows.Data))

	xml, err := p.Reconstruct(docID)
	if err != nil {
		panic(err)
	}
	fmt.Println(xml)
	// Output:
	// items: 2
	// <?xml version="1.0"?>
	// <order id="o1"><item><sku>A-1</sku><qty>2</qty></item><item><sku>B-9</sku><qty>1</qty></item></order>
}

// ExamplePipeline_ConvertedDTD shows the paper's Example-2 notation for a
// tiny DTD: the (#PCDATA) leaf is distilled into an attribute and the
// repeated child becomes a NESTED relationship.
func ExamplePipeline_ConvertedDTD() {
	p, err := xmlrdb.Open(`
<!ELEMENT order (sku, item*)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT item EMPTY>
`, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Print(p.ConvertedDTD())
	// Output:
	// <!ELEMENT order ()>
	// <!ATTLIST order sku (#PCDATA) #REQUIRED>
	// <!NESTED Nitem order item>
	// <!ELEMENT item EMPTY>
}

// ExamplePipeline_SQL runs plain SQL over the shredded store.
func ExamplePipeline_SQL() {
	p, err := xmlrdb.Open(`
<!ELEMENT list (v*)>
<!ELEMENT v (#PCDATA)>
`, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	if _, err := p.LoadXML(`<list><v>10</v><v>20</v><v>12</v></list>`, "l"); err != nil {
		panic(err)
	}
	rows, err := p.SQL(`SELECT COUNT(*), SUM(NUM(txt)) FROM e_v WHERE NUM(txt) >= 11`)
	if err != nil {
		panic(err)
	}
	fmt.Println(rows.Data[0][0], rows.Data[0][1])
	// Output: 2 32
}

// ExamplePipeline_TranslatePath shows the SQL a path query becomes.
func ExamplePipeline_TranslatePath() {
	p, err := xmlrdb.Open(`
<!ELEMENT a (b*)>
<!ELEMENT b EMPTY>
<!ATTLIST b k CDATA #IMPLIED>
`, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	sqls, err := p.TranslatePath("/a/b[@k='v']")
	if err != nil {
		panic(err)
	}
	fmt.Println(sqls[0])
	// Output: SELECT e1.doc, e1.id FROM e_a e0, x_docs xd, r_Nb r0, e_b e1 WHERE xd.root_type = 'a' AND xd.root = e0.id AND r0.parent = e0.id AND r0.child = e1.id AND e1.a_k = 'v'
}

// Example_paperRunningExample follows the paper's running example: map
// the books/articles/authors DTD (Example 1), load the §3 sample book,
// and read it back as a path query and as SQL over the ER-mapped
// tables, joining through the nested-group and nesting relations.
func Example_paperRunningExample() {
	p, err := xmlrdb.Open(paper.Example1DTD, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	if _, err := p.LoadXML(paper.BookXML, "paper-book"); err != nil {
		panic(err)
	}
	rows, err := p.Query("/book/author/name")
	if err != nil {
		panic(err)
	}
	fmt.Println("/book/author/name:", len(rows.Data), "names")
	rows, err = p.SQL(`
SELECT n.a_firstname, n.a_lastname
FROM r_NG1 g
JOIN e_author a ON g.child = a.id
JOIN r_Nname nn ON nn.parent = a.id
JOIN e_name n ON nn.child = n.id
ORDER BY g.ord`)
	if err != nil {
		panic(err)
	}
	for _, r := range rows.Data {
		fmt.Println(r[0], r[1])
	}
	// Output:
	// /book/author/name: 2 names
	// John Smith
	// Dave Brown
}

// ExamplePipeline_VerifyRoundTrip loads the paper's three fixtures with
// a round-trip check each, then follows the article's IDREF contact
// author to the author it references.
func ExamplePipeline_VerifyRoundTrip() {
	p, err := xmlrdb.Open(paper.Example1DTD, xmlrdb.Config{})
	if err != nil {
		panic(err)
	}
	for i, src := range []string{paper.BookXML, paper.ArticleXML, paper.EditorXML} {
		if err := p.VerifyRoundTrip(src, fmt.Sprintf("fixture-%d", i)); err != nil {
			panic(err)
		}
	}
	rows, err := p.SQL(`
SELECT r.refvalue, n.a_lastname
FROM r_authorid r
JOIN r_Nname nn ON nn.parent = r.target
JOIN e_name n ON nn.child = n.id`)
	if err != nil {
		panic(err)
	}
	fmt.Println("contact author:", rows.Data)
	// Output: contact author: [[wlee Lee]]
}

// Example_orders is the data-centric case the paper's introduction
// motivates: purchase orders referencing customers by ID, mapped with
// the fold strategy and analyzed with SQL joins through the IDREF
// relation.
func Example_orders() {
	p, err := xmlrdb.Open(`
<!ELEMENT orders (customer*, order*)>
<!ELEMENT customer (name)>
<!ATTLIST customer id ID #REQUIRED segment (retail | corporate) "retail">
<!ELEMENT name (#PCDATA)>
<!ELEMENT order (item+)>
<!ATTLIST order buyer IDREF #REQUIRED status (open | shipped | returned) "open">
<!ELEMENT item (sku, qty, price)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`, xmlrdb.Config{Strategy: xmlrdb.StrategyFoldFK})
	if err != nil {
		panic(err)
	}
	err = p.VerifyRoundTrip(`<orders>`+
		`<customer id="c1" segment="corporate"><name>Acme</name></customer>`+
		`<customer id="c2"><name>Bob</name></customer>`+
		`<order buyer="c1" status="shipped"><item><sku>A</sku><qty>2</qty><price>10</price></item><item><sku>B</sku><qty>1</qty><price>5</price></item></order>`+
		`<order buyer="c2"><item><sku>A</sku><qty>1</qty><price>10</price></item></order>`+
		`<order buyer="c1" status="returned"><item><sku>C</sku><qty>3</qty><price>7</price></item></order>`+
		`</orders>`, "po-1")
	if err != nil {
		panic(err)
	}
	rows, err := p.SQL(`
SELECT c.a_segment, COUNT(*) items, SUM(NUM(i.a_price) * NUM(i.a_qty)) revenue
FROM e_item i
JOIN e_order o ON i.parent = o.id
JOIN r_buyer r ON r.source = o.id
JOIN e_customer c ON r.target = c.id
GROUP BY c.a_segment ORDER BY revenue DESC`)
	if err != nil {
		panic(err)
	}
	for _, r := range rows.Data {
		fmt.Println(r[0], r[1], r[2])
	}
	rows, err = p.Query("/orders/order[@status='returned']")
	if err != nil {
		panic(err)
	}
	fmt.Println("returned orders:", len(rows.Data))
	// Output:
	// corporate 3 46
	// retail 1 10
	// returned orders: 1
}

// Example_mappingComparison loads the paper's fixtures under all seven
// mappings — the paper's ER mapping (junction and fold), the Edge and
// Universal tables, and Basic/Shared/Hybrid inlining — and runs the
// same path query on each: same answer, different schema and joins.
func Example_mappingComparison() {
	q := pathquery.MustParse("/article/author/name")
	maps, err := baselines.All(dtd.MustParse(paper.Example1DTD))
	if err != nil {
		panic(err)
	}
	for _, m := range maps {
		db := engine.Open()
		if err := db.CreateSchema(m.Schema()); err != nil {
			panic(err)
		}
		for i, src := range []string{paper.BookXML, paper.ArticleXML, paper.EditorXML} {
			doc, err := xmltree.Parse(src)
			if err != nil {
				panic(err)
			}
			if _, err := m.Load(db, doc, fmt.Sprintf("d%d", i)); err != nil {
				panic(err)
			}
		}
		trans, err := m.Translator().Translate(q)
		if err != nil {
			panic(err)
		}
		rows, err := pathquery.Execute(db, trans)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s tables=%-2d rows=%-3d answer=%d joins=%d\n",
			m.Name(), m.Schema().ComputeStats().Tables, db.TotalRows(), len(rows.Data), trans.Joins)
	}
	// Output:
	// er-junction tables=18 rows=47  answer=3 joins=5
	// er-fold-fk tables=16 rows=39  answer=3 joins=4
	// edge       tables=2  rows=68  answer=3 joins=3
	// universal  tables=2  rows=41  answer=3 joins=2
	// basic      tables=13 rows=41  answer=3 joins=3
	// shared     tables=8  rows=20  answer=3 joins=2
	// hybrid     tables=7  rows=18  answer=3 joins=2
}
