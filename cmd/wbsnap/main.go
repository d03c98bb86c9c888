// Command wbsnap describes a model bundle: the container version, the
// section table and the serving cost (model shape, fold-table bytes per tier)
// of the one model file format, the checksummed binary
// snapshot (internal/snapshot) that wbtrain writes and wbrief and wbserve
// boot from.
//
// Usage:
//
//	wbsnap -info model.bin
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"webbrief/internal/snapshot"
	"webbrief/internal/wb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("wbsnap: ")
	info := flag.String("info", "", "describe a model bundle (version, sections, sizes) and exit")
	flag.Parse()
	if *info == "" {
		log.Fatal("usage: wbsnap -info model.bin")
	}
	if err := describe(*info); err != nil {
		log.Fatal(err)
	}
}

// describe prints a bundle's container version and section table, after
// the loader every other binary uses has accepted the file.
func describe(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, v, err := wb.LoadModel(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	s, err := snapshot.Decode(data)
	if err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	fmt.Printf("%s: snapshot v%d, %d bytes, %d sections\n", path, s.Version(), len(data), len(s.Names()))
	for _, name := range s.Names() {
		payload, _ := s.Section(name)
		fmt.Printf("  %-24s %-18s %d bytes\n", name, sectionDtype(name), len(payload))
	}
	// What serving the bundle costs beyond its weights: the fold tables
	// wbserve builds per tier at boot and at every reload.
	h := m.Cfg.Hidden
	fmt.Printf("  model: V=%d embDim=%d h=%d\n", v.Size(), m.Enc.Dim(), h)
	fmt.Printf("  serving fold tables (3·V·4h elements per tier): teacher float64 %d bytes, student float32 (-cascade) %d bytes\n",
		wb.FoldTableBytes(v.Size(), h, 8), wb.FoldTableBytes(v.Size(), h, 4))
	return nil
}

// sectionDtype labels a model section with its element encoding.
func sectionDtype(name string) string {
	switch name {
	case "jointwb/params":
		return "float64 (8B/elem)"
	case "jointwb/meta":
		return "varint meta"
	}
	return "opaque"
}
