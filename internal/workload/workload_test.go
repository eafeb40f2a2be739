package workload

import (
	"math"
	"testing"

	"opmap/internal/dataset"
)

func TestCallLogShape(t *testing.T) {
	ds, gt, err := CallLog(CallLogConfig{Seed: 1, Records: 20000, NumPhones: 4, NoiseAttrs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRows() != 20000 {
		t.Fatalf("rows = %d", ds.NumRows())
	}
	// 5 planted + 5 noise + class = 11 attributes.
	if ds.NumAttrs() != 11 {
		t.Fatalf("attrs = %d, want 11", ds.NumAttrs())
	}
	if !ds.AllCategorical() {
		t.Error("call log must be fully categorical")
	}
	for _, name := range []string{gt.PhoneAttr, gt.DistinguishingAttr, gt.SecondaryAttr, gt.ProportionalAttr, gt.PropertyAttr} {
		if ds.AttrIndex(name) < 0 {
			t.Errorf("ground truth attribute %q missing", name)
		}
	}
	if len(gt.NoiseAttrs) != 5 {
		t.Errorf("noise attrs = %d", len(gt.NoiseAttrs))
	}
}

func TestCallLogPlantedRates(t *testing.T) {
	ds, gt, err := CallLog(CallLogConfig{Seed: 7, Records: 200000})
	if err != nil {
		t.Fatal(err)
	}
	phone := ds.AttrIndex(gt.PhoneAttr)
	dropCode, _ := ds.ClassDict().Lookup(gt.DropClass)
	good, _ := ds.Column(phone).Dict.Lookup(gt.GoodPhone)
	bad, _ := ds.Column(phone).Dict.Lookup(gt.BadPhone)

	rate := func(v int32) float64 {
		var n, d int64
		for r := 0; r < ds.NumRows(); r++ {
			if ds.CatCode(r, phone) != v {
				continue
			}
			n++
			if ds.ClassCode(r) == dropCode {
				d++
			}
		}
		return float64(d) / float64(n)
	}
	gr, br := rate(good), rate(bad)
	if math.Abs(gr-0.02) > 0.005 {
		t.Errorf("good phone drop rate %.4f, want ≈0.02", gr)
	}
	if math.Abs(br-0.04) > 0.008 {
		t.Errorf("bad phone drop rate %.4f, want ≈0.04", br)
	}

	// The bad phone's excess lives in the morning (Fig. 2(B)).
	timeA := ds.AttrIndex(gt.DistinguishingAttr)
	morning, _ := ds.Column(timeA).Dict.Lookup(gt.MorningValue)
	evening, _ := ds.Column(timeA).Dict.Lookup("evening")
	condRate := func(pv, tv int32) float64 {
		var n, d int64
		for r := 0; r < ds.NumRows(); r++ {
			if ds.CatCode(r, phone) != pv || ds.CatCode(r, timeA) != tv {
				continue
			}
			n++
			if ds.ClassCode(r) == dropCode {
				d++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	badMorning := condRate(bad, morning)
	badEvening := condRate(bad, evening)
	goodEvening := condRate(good, evening)
	if badMorning < 2.5*badEvening {
		t.Errorf("bad phone morning rate %.4f not concentrated vs evening %.4f", badMorning, badEvening)
	}
	if math.Abs(badEvening-goodEvening) > 0.01 {
		t.Errorf("evening rates should match: bad=%.4f good=%.4f", badEvening, goodEvening)
	}
}

func TestCallLogPropertyAttribute(t *testing.T) {
	ds, gt, err := CallLog(CallLogConfig{Seed: 3, Records: 5000})
	if err != nil {
		t.Fatal(err)
	}
	phone := ds.AttrIndex(gt.PhoneAttr)
	hw := ds.AttrIndex(gt.PropertyAttr)
	for r := 0; r < ds.NumRows(); r++ {
		if ds.CatCode(r, phone) != ds.CatCode(r, hw) {
			t.Fatal("hardware version must be determined by phone model")
		}
	}
}

func TestCallLogDeterministic(t *testing.T) {
	a, _, err := CallLog(CallLogConfig{Seed: 5, Records: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CallLog(CallLogConfig{Seed: 5, Records: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumAttrs(); c++ {
			if a.Label(r, c) != b.Label(r, c) {
				t.Fatalf("generation not deterministic at (%d,%d)", r, c)
			}
		}
	}
	c, _, err := CallLog(CallLogConfig{Seed: 6, Records: 1000})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < a.NumRows() && same; r++ {
		if a.ClassCode(r) != c.ClassCode(r) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical class sequences")
	}
}

func TestCallLogValidation(t *testing.T) {
	if _, _, err := CallLog(CallLogConfig{Seed: 1, Records: 100, GoodDropRate: 0.05, BadDropRate: 0.02}); err == nil {
		t.Error("good > bad rate should fail")
	}
	if _, _, err := CallLog(CallLogConfig{Seed: 1, Records: 100, GoodDropRate: -1, BadDropRate: 0.02}); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestCaseStudyConfigShape(t *testing.T) {
	ds, _, err := CallLog(CaseStudyConfig(1, 5000))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's case study: 41 attributes, one of which is the class.
	if ds.NumAttrs() != 41 {
		t.Errorf("case study attrs = %d, want 41", ds.NumAttrs())
	}
}

func TestClassSkew(t *testing.T) {
	ds, gt, err := CallLog(CallLogConfig{Seed: 2, Records: 50000})
	if err != nil {
		t.Fatal(err)
	}
	okCode, _ := ds.ClassDict().Lookup(gt.OKClass)
	dist := ds.ClassDistribution()
	frac := float64(dist[okCode]) / float64(ds.NumRows())
	if frac < 0.9 {
		t.Errorf("majority class share %.3f; call logs must be highly skewed", frac)
	}
}

func TestScaleShape(t *testing.T) {
	ds, err := Scale(ScaleConfig{Seed: 1, Records: 5000, Attrs: 40, Cardinality: 8, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumAttrs() != 41 {
		t.Errorf("attrs = %d, want 41", ds.NumAttrs())
	}
	if ds.NumRows() != 5000 {
		t.Errorf("rows = %d", ds.NumRows())
	}
	for a := 0; a < 40; a++ {
		if ds.Cardinality(a) != 8 {
			t.Fatalf("attr %d cardinality = %d", a, ds.Cardinality(a))
		}
	}
	if ds.NumClasses() != 3 {
		t.Errorf("classes = %d", ds.NumClasses())
	}
}

func TestScalePlantedSignal(t *testing.T) {
	ds, err := Scale(ScaleConfig{Seed: 9, Records: 100000, Attrs: 10, Cardinality: 4, Classes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A0=v1 & A1=v0 must fail far more often than baseline.
	var hotN, hotF, coldN, coldF int64
	for r := 0; r < ds.NumRows(); r++ {
		fail := ds.ClassCode(r) == 1
		if ds.CatCode(r, 0) == 1 && ds.CatCode(r, 1) == 0 {
			hotN++
			if fail {
				hotF++
			}
		} else if ds.CatCode(r, 0) == 0 {
			coldN++
			if fail {
				coldF++
			}
		}
	}
	hot := float64(hotF) / float64(hotN)
	cold := float64(coldF) / float64(coldN)
	if hot < 3*cold {
		t.Errorf("planted hot cell rate %.4f vs baseline %.4f: signal too weak", hot, cold)
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := Scale(ScaleConfig{Attrs: 1, Records: 10}); err == nil {
		t.Error("1 attribute should fail")
	}
	if _, err := Scale(ScaleConfig{Attrs: 4, Cardinality: 1, Records: 10}); err == nil {
		t.Error("cardinality 1 should fail")
	}
	if _, err := Scale(ScaleConfig{Attrs: 4, Classes: 1, Records: 10}); err == nil {
		t.Error("single class should fail")
	}
}

func TestManufacturingShape(t *testing.T) {
	ds, truth, err := Manufacturing(ManufacturingConfig{Seed: 1, Records: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if ds.AllCategorical() {
		t.Error("manufacturing log must contain continuous attributes")
	}
	for _, n := range truth.ContinuousAttrs {
		i := ds.AttrIndex(n)
		if i < 0 || ds.Attr(i).Kind != dataset.Continuous {
			t.Errorf("attribute %q should be continuous", n)
		}
	}
	// Planted M7×S4 defect concentration.
	m := ds.AttrIndex(truth.MachineAttr)
	s := ds.AttrIndex(truth.DistinguishingAttr)
	bad, _ := ds.Column(m).Dict.Lookup(truth.BadMachine)
	sup, _ := ds.Column(s).Dict.Lookup(truth.BadSupplier)
	defCode, _ := ds.ClassDict().Lookup(truth.DefectClass)
	var hotN, hotD, otherN, otherD int64
	for r := 0; r < ds.NumRows(); r++ {
		isDef := ds.ClassCode(r) == defCode
		if ds.CatCode(r, m) == bad && ds.CatCode(r, s) == sup {
			hotN++
			if isDef {
				hotD++
			}
		} else {
			otherN++
			if isDef {
				otherD++
			}
		}
	}
	hot := float64(hotD) / float64(hotN)
	other := float64(otherD) / float64(otherN)
	if hot < 3*other {
		t.Errorf("planted defect rate %.4f vs %.4f too weak", hot, other)
	}
}

func TestCallLogMissingRate(t *testing.T) {
	ds, gt, err := CallLog(CallLogConfig{Seed: 9, Records: 10000, NoiseAttrs: 4, MissingRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var missing, total int64
	for _, name := range gt.NoiseAttrs {
		a := ds.AttrIndex(name)
		for r := 0; r < ds.NumRows(); r++ {
			total++
			if ds.CatCode(r, a) == dataset.Missing {
				missing++
			}
		}
	}
	frac := float64(missing) / float64(total)
	if frac < 0.08 || frac > 0.12 {
		t.Errorf("missing fraction %.3f, want ≈0.10", frac)
	}
	// Planted attributes stay complete.
	a := ds.AttrIndex(gt.DistinguishingAttr)
	for r := 0; r < ds.NumRows(); r++ {
		if ds.CatCode(r, a) == dataset.Missing {
			t.Fatal("planted attribute should not be gappy")
		}
	}
}

// TestCallLogColumnsOneByte: every column of the served call-log
// shapes (eight phones, up to 140 noise attributes) has few enough
// labels to be stored one byte a cell, which is what the resident
// memory of a call-log session rests on.
func TestCallLogColumnsOneByte(t *testing.T) {
	ds, _, err := CallLog(CallLogConfig{Seed: 1, Records: 3000, NumPhones: 8, NoiseAttrs: 140})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < ds.NumAttrs(); a++ {
		if _, wide := ds.Column(a).Stored(); wide != nil {
			t.Errorf("attribute %s (%d labels) is stored wide", ds.Attr(a).Name, ds.Cardinality(a))
		}
	}
}
