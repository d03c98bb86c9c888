package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// ExportRecord is the JSONL form of one labelled page, the interchange
// format for using the corpus outside this repository.
type ExportRecord struct {
	ID          string       `json:"id"`
	Domain      string       `json:"domain"`
	Topic       []string     `json:"topic"`
	HTML        string       `json:"html,omitempty"`
	Sentences   [][]string   `json:"sentences"`
	Informative []bool       `json:"informative"`
	Attributes  []ExportAttr `json:"attributes"`
}

// ExportAttr is one labelled attribute with its sentence-local span.
type ExportAttr struct {
	Label    string   `json:"label"`
	Value    []string `json:"value"`
	Level    int      `json:"level"`
	Sentence int      `json:"sentence"`
	Start    int      `json:"start"`
	End      int      `json:"end"`
}

// ExportJSONL writes pages as one JSON object per line. includeHTML
// controls whether the raw markup is embedded (it dominates the file size).
func ExportJSONL(w io.Writer, pages []*Page, includeHTML bool) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range pages {
		rec := ExportRecord{
			ID:     p.ID,
			Domain: p.Domain,
			Topic:  p.Topic,
		}
		if includeHTML {
			rec.HTML = p.HTML
		}
		for si, s := range p.Sentences {
			rec.Sentences = append(rec.Sentences, s.Tokens)
			rec.Informative = append(rec.Informative, s.Informative)
			if s.Attr != nil {
				rec.Attributes = append(rec.Attributes, ExportAttr{
					Label:    s.Attr.Label,
					Value:    s.Attr.Value,
					Level:    s.Attr.Level,
					Sentence: si,
					Start:    s.AttrStart,
					End:      s.AttrEnd,
				})
			}
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("corpus: export %s: %w", p.ID, err)
		}
	}
	return bw.Flush()
}
