package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"xmlrdb/internal/dtd"
	"xmlrdb/internal/paper"
	"xmlrdb/internal/wgen"
	"xmlrdb/internal/xmltree"
)

// ordersDTD is the examples/orders DTD, copied so the benchmark does not
// depend on an example program.
const ordersDTD = `
<!ELEMENT orders (customer*, order*)>
<!ELEMENT customer (name, address)>
<!ATTLIST customer id ID #REQUIRED segment (retail | corporate) "retail">
<!ELEMENT name (#PCDATA)>
<!ELEMENT address (#PCDATA)>
<!ELEMENT order (item+, note?)>
<!ATTLIST order buyer IDREF #REQUIRED status (open | shipped | returned) "open">
<!ELEMENT item (sku, qty, price)>
<!ELEMENT sku (#PCDATA)>
<!ELEMENT qty (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT note (#PCDATA)>
`

// Shape of one generated orders document (≈34 KB, ≈1900 elements).
const (
	ordersCustomers = 30
	ordersOrders    = 120
	ordersMaxItems  = 6
	ordersSKUs      = 500
)

var bibRoots = []string{"book", "article", "editor", "monograph"}

// document is one generated input: its XML text, the name it is loaded
// under and its root element type.
type document struct {
	xml, name, root string
}

// corpus is the seeded input of one workload. base is loaded in the load
// phase (document ids 1..len(base), in order); extra feeds the writer.
type corpus struct {
	kind  string // "bib" or "orders"
	dtd   *dtd.DTD
	base  []document
	extra []document
	info  corpusInfo
}

// corpusInfo is recorded in every result so determinism per seed is
// checkable: the hash covers the concatenated XML of base then extra.
type corpusInfo struct {
	Kind     string `json:"kind"`
	Docs     int    `json:"docs"`
	Extra    int    `json:"extra_docs"`
	Bytes    int    `json:"bytes"`
	Elements int    `json:"elements"`
	SHA256   string `json:"sha256"`
}

// generateCorpus builds nBase+nExtra documents of the given kind from the
// seed alone.
func generateCorpus(kind string, seed int64, nBase, nExtra int) (*corpus, error) {
	c := &corpus{kind: kind}
	var dtdText string
	switch kind {
	case "bib":
		dtdText = paper.Example1DTD
	case "orders":
		dtdText = ordersDTD
	default:
		return nil, fmt.Errorf("unknown corpus %q", kind)
	}
	d, err := dtd.Parse(dtdText)
	if err != nil {
		return nil, err
	}
	c.dtd = d
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	for i := 0; i < nBase+nExtra; i++ {
		var doc document
		var elements int
		if kind == "bib" {
			doc.root = bibRoots[i%len(bibRoots)]
			tree, err := wgen.GenerateDoc(d, doc.root, rng, wgen.DocConfig{MaxRepeat: 3})
			if err != nil {
				return nil, err
			}
			doc.xml = tree.Render(xmltree.WriteOptions{})
			elements = tree.Root.CountElements()
		} else {
			doc.root = "orders"
			doc.xml, elements = generateOrders(rng)
		}
		doc.name = fmt.Sprintf("%s-%06d", kind, i+1)
		h.Write([]byte(doc.xml))
		c.info.Bytes += len(doc.xml)
		c.info.Elements += elements
		if i < nBase {
			c.base = append(c.base, doc)
		} else {
			c.extra = append(c.extra, doc)
		}
	}
	c.info.Kind = kind
	c.info.Docs = nBase
	c.info.Extra = nExtra
	c.info.SHA256 = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// generateOrders renders one purchase-order exchange document and
// returns it with its element count.
func generateOrders(rng *rand.Rand) (string, int) {
	var b strings.Builder
	elements := 1
	b.WriteString(`<?xml version="1.0"?>` + "\n<orders>")
	for c := 0; c < ordersCustomers; c++ {
		seg := "retail"
		if rng.Intn(4) == 0 {
			seg = "corporate"
		}
		fmt.Fprintf(&b, `<customer id="c%d" segment="%s"><name>Customer %d</name><address>%d Sylvan Road</address></customer>`,
			c, seg, rng.Intn(10000), 1+rng.Intn(999))
		elements += 3
	}
	statuses := []string{"open", "shipped", "returned"}
	for o := 0; o < ordersOrders; o++ {
		fmt.Fprintf(&b, `<order buyer="c%d" status="%s">`, rng.Intn(ordersCustomers), statuses[rng.Intn(len(statuses))])
		elements++
		for i, n := 0, 1+rng.Intn(ordersMaxItems); i < n; i++ {
			fmt.Fprintf(&b, `<item><sku>SKU-%d</sku><qty>%d</qty><price>%d</price></item>`,
				rng.Intn(ordersSKUs), 1+rng.Intn(9), 10+rng.Intn(90))
			elements += 4
		}
		if o%3 == 0 {
			b.WriteString(`<note>expedite</note>`)
			elements++
		}
		b.WriteString(`</order>`)
	}
	b.WriteString("</orders>")
	return b.String(), elements
}

// xmlBytes sums the XML text length of docs.
func xmlBytes(docs []document) int {
	n := 0
	for _, d := range docs {
		n += len(d.xml)
	}
	return n
}
