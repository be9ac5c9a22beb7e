package chainsim

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/core"
	"txconcur/internal/types"
	"txconcur/internal/utxo"
)

func TestProfilesWellFormed(t *testing.T) {
	profiles := AllProfiles()
	if len(profiles) != 7 {
		t.Fatalf("profiles = %d, want 7 (Table I)", len(profiles))
	}
	names := map[string]bool{}
	for _, p := range profiles {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.Model != UTXO && p.Model != Account {
			t.Fatalf("%s: bad model", p.Name)
		}
		if len(p.Eras) == 0 {
			t.Fatalf("%s: no eras", p.Name)
		}
		if p.TotalWeight() <= 0 {
			t.Fatalf("%s: zero weight", p.Name)
		}
		prev := int64(0)
		for _, e := range p.Eras {
			if e.StartTime < prev {
				t.Fatalf("%s: era %s starts before its predecessor", p.Name, e.Name)
			}
			prev = e.StartTime
			if e.TxPerBlock <= 0 || e.BlockInterval <= 0 {
				t.Fatalf("%s/%s: bad load parameters", p.Name, e.Name)
			}
		}
	}
	for _, want := range []string{"Bitcoin", "Bitcoin Cash", "Litecoin", "Dogecoin", "Ethereum", "Ethereum Classic", "Zilliqa"} {
		if !names[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("Ethereum")
	if !ok || p.Name != "Ethereum" || p.Model != Account {
		t.Fatalf("ProfileByName(Ethereum) = %+v, %v", p, ok)
	}
	if _, ok := ProfileByName("Tezos"); ok {
		t.Fatal("unknown profile found")
	}
}

func TestEraSchedule(t *testing.T) {
	p := BitcoinProfile()
	counts := eraSchedule(p, 66)
	total := 0
	for i, c := range counts {
		if c < 1 {
			t.Fatalf("era %d got %d blocks", i, c)
		}
		total += c
	}
	if total != 66 {
		t.Fatalf("schedule totals %d, want 66", total)
	}
}

func TestUTXOGenDeterministic(t *testing.T) {
	run := func() ([32]byte, int) {
		g, err := NewUTXOGen(LitecoinProfile(), 12, 42)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		return g.Chain().TipHash(), n
	}
	h1, n1 := run()
	h2, n2 := run()
	if h1 != h2 || n1 != n2 {
		t.Fatalf("generator not deterministic: %x/%d vs %x/%d", h1, n1, h2, n2)
	}
	if n1 != 12 {
		t.Fatalf("generated %d blocks, want 12", n1)
	}
}

func TestUTXOGenFullyValid(t *testing.T) {
	// Script verification on: every input must carry a correct signature.
	g, err := NewUTXOGenVerified(DogecoinProfile(), 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	txs := 0
	for {
		blk, ok, err := g.Next()
		if err != nil {
			t.Fatalf("block %d: %v", blocks, err)
		}
		if !ok {
			break
		}
		blocks++
		txs += blk.NumTxs()
		if blk.Txs[0].IsCoinbase() == false {
			t.Fatal("block must start with coinbase")
		}
	}
	if blocks != 9 {
		t.Fatalf("blocks = %d", blocks)
	}
	if txs <= blocks {
		t.Fatalf("history has only %d transactions", txs)
	}
}

func TestUTXOGenModelMismatch(t *testing.T) {
	if _, err := NewUTXOGen(EthereumProfile(), 5, 1); err == nil {
		t.Fatal("account profile accepted by UTXO generator")
	}
	if _, err := NewAcctGen(BitcoinProfile(), 5, 1); err == nil {
		t.Fatal("UTXO profile accepted by account generator")
	}
}

func TestAcctGenDeterministic(t *testing.T) {
	run := func() ([32]byte, int) {
		g, err := NewAcctGen(ZilliqaProfile(), 15, 42)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, _, ok, err := g.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		return g.Chain().State().Root(), n
	}
	h1, n1 := run()
	h2, n2 := run()
	if h1 != h2 || n1 != n2 {
		t.Fatalf("generator not deterministic")
	}
	if n1 != 15 {
		t.Fatalf("generated %d blocks, want 15", n1)
	}
}

func TestAcctGenExecutes(t *testing.T) {
	g, err := NewAcctGen(EthereumProfile(), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	internal := 0
	creations := 0
	failures := 0
	for {
		blk, receipts, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if len(receipts) != len(blk.Txs) {
			t.Fatalf("receipts %d != txs %d", len(receipts), len(blk.Txs))
		}
		for i, r := range receipts {
			if r.Status != 1 {
				failures++
				t.Logf("tx %d failed: %s", i, r.ExecErr)
			}
			internal += len(r.Internal)
			if blk.Txs[i].IsCreation() {
				creations++
				if r.To.IsZero() {
					t.Fatal("creation without contract address")
				}
			}
		}
	}
	if failures > 0 {
		t.Fatalf("%d generated transactions failed", failures)
	}
	if internal == 0 {
		t.Fatal("no internal transactions generated (Ethereum workload must produce traces)")
	}
}

// aggregate is the transaction-weighted mean of the conflict rates over a
// run, i.e. Σ conflicted / Σ txs and Σ LCC / Σ txs, matching the paper's
// per-bucket weighting.
type aggregate struct {
	blocks, txs, internal, inputs, conflicted, lcc int
}

func (a aggregate) single() float64 {
	if a.txs == 0 {
		return 0
	}
	return float64(a.conflicted) / float64(a.txs)
}

func (a aggregate) group() float64 {
	if a.txs == 0 {
		return 0
	}
	return float64(a.lcc) / float64(a.txs)
}

func (a aggregate) txPerBlock() float64 {
	if a.blocks == 0 {
		return 0
	}
	return float64(a.txs) / float64(a.blocks)
}

func measureUTXO(t *testing.T, p Profile, numBlocks int, seed int64) aggregate {
	t.Helper()
	g, err := NewUTXOGen(p, numBlocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	var agg aggregate
	for {
		blk, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		m := core.MeasureUTXOBlock(blk)
		agg.blocks++
		agg.txs += m.NumTxs
		agg.inputs += m.NumInputs
		agg.conflicted += m.Conflicted
		agg.lcc += m.LCC
	}
	return agg
}

func measureAcct(t *testing.T, p Profile, numBlocks int, seed int64) aggregate {
	t.Helper()
	g, err := NewAcctGen(p, numBlocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	var agg aggregate
	for {
		blk, receipts, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		m := core.MeasureAccountBlock(blk, receipts)
		agg.blocks++
		agg.txs += m.NumTxs
		agg.internal += m.NumInternal
		agg.conflicted += m.Conflicted
		agg.lcc += m.LCC
	}
	return agg
}

// Calibration tests: the generated workloads must land in the bands the
// paper reports (DESIGN.md §5). Bands are generous — the goal is the
// paper's orderings and rough levels, not exact plot values.

func TestBitcoinCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a full mini-history")
	}
	agg := measureUTXO(t, BitcoinProfile(), 60, 1)
	t.Logf("Bitcoin: tx/block=%.0f inputs/tx=%.2f single=%.3f group=%.4f",
		agg.txPerBlock(), float64(agg.inputs)/float64(agg.txs), agg.single(), agg.group())
	if s := agg.single(); s < 0.06 || s > 0.25 {
		t.Errorf("single rate %.3f outside paper band [0.06, 0.25] (~13-15%%)", s)
	}
	if gr := agg.group(); gr < 0.002 || gr > 0.05 {
		t.Errorf("group rate %.4f outside paper band [0.002, 0.05] (~1%%)", gr)
	}
	if tpb := agg.txPerBlock(); tpb < 400 {
		t.Errorf("tx/block %.0f too low (late-era Bitcoin exceeds 2000)", tpb)
	}
}

func TestEthereumCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a full mini-history")
	}
	agg := measureAcct(t, EthereumProfile(), 120, 1)
	t.Logf("Ethereum: tx/block=%.0f internal/block=%.1f single=%.3f group=%.3f",
		agg.txPerBlock(), float64(agg.internal)/float64(agg.blocks), agg.single(), agg.group())
	if s := agg.single(); s < 0.5 || s > 0.9 {
		t.Errorf("single rate %.3f outside paper band [0.5, 0.9] (60-80%%)", s)
	}
	if gr := agg.group(); gr < 0.12 || gr > 0.5 {
		t.Errorf("group rate %.3f outside paper band [0.12, 0.5] (20-50%%)", gr)
	}
	if agg.internal == 0 {
		t.Error("Ethereum history has no internal transactions")
	}
	if agg.single() <= agg.group() {
		t.Errorf("single rate %.3f must exceed group rate %.3f", agg.single(), agg.group())
	}
}

func TestUTXOVersusAccountOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a full mini-history")
	}
	// Paper finding 1: more concurrency (lower conflict) in UTXO chains.
	btc := measureUTXO(t, BitcoinProfile(), 40, 2)
	eth := measureAcct(t, EthereumProfile(), 80, 2)
	if btc.single() >= eth.single() {
		t.Errorf("Bitcoin single %.3f should be far below Ethereum %.3f", btc.single(), eth.single())
	}
	if btc.group() >= eth.group() {
		t.Errorf("Bitcoin group %.4f should be far below Ethereum %.3f", btc.group(), eth.group())
	}
}

func TestForkChainsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a full mini-history")
	}
	// Paper §IV-C: the fork chains (fewer users) have *higher* conflict
	// rates despite fewer transactions.
	btc := measureUTXO(t, BitcoinProfile(), 40, 3)
	bch := measureUTXO(t, BitcoinCashProfile(), 40, 3)
	t.Logf("BCH: tx/block=%.0f single=%.3f group=%.4f", bch.txPerBlock(), bch.single(), bch.group())
	if bch.txPerBlock() >= btc.txPerBlock()/3 {
		t.Errorf("Bitcoin Cash tx/block %.0f should be well below Bitcoin's %.0f", bch.txPerBlock(), btc.txPerBlock())
	}
	if bch.single() <= btc.single() {
		t.Errorf("Bitcoin Cash single %.3f should exceed Bitcoin's %.3f", bch.single(), btc.single())
	}
	if bch.group() <= btc.group() {
		t.Errorf("Bitcoin Cash group %.4f should exceed Bitcoin's %.4f", bch.group(), btc.group())
	}

	eth := measureAcct(t, EthereumProfile(), 80, 4)
	etc := measureAcct(t, EthereumClassicProfile(), 80, 4)
	t.Logf("ETC: tx/block=%.0f single=%.3f group=%.3f", etc.txPerBlock(), etc.single(), etc.group())
	if etc.txPerBlock() >= eth.txPerBlock()/3 {
		t.Errorf("Classic tx/block %.0f should be an order below Ethereum's %.0f", etc.txPerBlock(), eth.txPerBlock())
	}
	if etc.group() < 0.5 || etc.group() > 0.9 {
		t.Errorf("Classic group rate %.3f outside paper band [0.5, 0.9] (~70%%)", etc.group())
	}
	if etc.group() <= eth.group() {
		t.Errorf("Classic group %.3f should exceed Ethereum's %.3f", etc.group(), eth.group())
	}
}

func TestZilliqaCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration runs a full mini-history")
	}
	zil := measureAcct(t, ZilliqaProfile(), 80, 5)
	t.Logf("Zilliqa: tx/block=%.0f single=%.3f group=%.3f", zil.txPerBlock(), zil.single(), zil.group())
	if zil.single() < 0.6 {
		t.Errorf("Zilliqa single rate %.3f should be the highest band (paper Figure 7)", zil.single())
	}
	if zil.group() < 0.5 {
		t.Errorf("Zilliqa group rate %.3f should be high (paper Figure 7)", zil.group())
	}
}

func TestLongChainsAppear(t *testing.T) {
	if testing.Short() {
		t.Skip("long history")
	}
	// Figure 6: Bitcoin blocks occasionally contain long intra-block spend
	// chains.
	g, err := NewUTXOGen(BitcoinProfile(), 50, 6)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for {
		blk, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if l := core.LongestSpendChain(blk); l > longest {
			longest = l
		}
	}
	if longest < 8 {
		t.Errorf("longest spend chain over history = %d, want >= 8 (Figure 6 shows 18)", longest)
	}
}

func TestGenesisAndChainTypes(t *testing.T) {
	g, err := NewUTXOGen(LitecoinProfile(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	var _ *utxo.Chain = g.Chain()
	if g.Chain().Height() != 1 {
		t.Fatalf("height before generation = %d, want 1 (genesis)", g.Chain().Height())
	}
	if g.Remaining() != 3 {
		t.Fatalf("remaining = %d, want 3", g.Remaining())
	}

	ag, err := NewAcctGen(EthereumClassicProfile(), 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	var _ *account.Chain = ag.Chain()
	if ag.Remaining() != 3 {
		t.Fatalf("acct remaining = %d, want 3", ag.Remaining())
	}
}

// TestShardProfiles checks the cross-shard extension profiles (E9): well
// formed, reachable by name, account-model, and their generated histories
// execute (the generator validates every block it appends).
func TestShardProfiles(t *testing.T) {
	ps := ShardProfiles()
	if len(ps) != 3 {
		t.Fatalf("shard profiles = %d, want 3", len(ps))
	}
	for _, p := range ps {
		byName, ok := ProfileByName(p.Name)
		if !ok || byName.Name != p.Name {
			t.Fatalf("ProfileByName(%q) failed", p.Name)
		}
		if p.Model != Account {
			t.Fatalf("%s: not account-model", p.Name)
		}
		g, err := NewAcctGen(p, 3, 17)
		if err != nil {
			t.Fatal(err)
		}
		txs := 0
		for {
			blk, receipts, ok, err := g.Next()
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if !ok {
				break
			}
			if len(receipts) != len(blk.Txs) {
				t.Fatalf("%s: %d receipts for %d txs", p.Name, len(receipts), len(blk.Txs))
			}
			txs += len(blk.Txs)
		}
		if txs == 0 {
			t.Fatalf("%s: empty history", p.Name)
		}
	}
}

// TestAdaptiveShardProfiles checks the sweep-bot workloads: well formed,
// reachable by name, sweep-dominated, and the drift profile's active bot
// window really rotates onto fresh collector addresses between eras.
func TestAdaptiveShardProfiles(t *testing.T) {
	ps := AdaptiveShardProfiles()
	if len(ps) != 2 {
		t.Fatalf("adaptive shard profiles = %d, want 2", len(ps))
	}
	for _, p := range ps {
		byName, ok := ProfileByName(p.Name)
		if !ok || byName.Name != p.Name {
			t.Fatalf("ProfileByName(%q) failed", p.Name)
		}
		if p.Model != Account {
			t.Fatalf("%s: not account-model", p.Name)
		}
		for _, e := range p.Eras {
			if e.HotSenderFrac <= 0 || e.HotSenders <= 0 {
				t.Fatalf("%s/%s: no sweep bots", p.Name, e.Name)
			}
		}
	}

	// Drift: collect the sender set of the first and last quarter of a
	// generated history; the rotation must retire every early bot.
	p := ShardDriftProfile()
	g, err := NewAcctGen(p, 16, 23)
	if err != nil {
		t.Fatal(err)
	}
	botSenders := func(blk *account.Block) map[string]bool {
		out := map[string]bool{}
		for _, tx := range blk.Txs {
			out[tx.From.String()] = true
		}
		return out
	}
	var early, late map[string]bool
	for i := 0; ; i++ {
		blk, _, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if i == 0 {
			early = botSenders(blk)
		}
		late = botSenders(blk)
	}
	// Bots are the dedicated "bot/<name>" addresses; the user populations
	// overlap across eras, the bot windows must not.
	bot := func(i uint64) string { return types.AddressFromUint64("bot/"+p.Name, i).String() }
	earlyBots, lateBots := 0, 0
	for i := uint64(0); i < 4; i++ {
		if early[bot(i)] {
			earlyBots++
		}
		if late[bot(i)] {
			lateBots++
		}
	}
	if earlyBots == 0 {
		t.Fatal("first era never used the first bot window")
	}
	if lateBots != 0 {
		t.Fatal("last era still uses the first bot window: the hotspot does not drift")
	}

	// Sweeps pay their paired collector, extending a per-bot nonce chain.
	g2, err := NewAcctGen(ShardSkewProfile(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	blk, _, _, err := g2.Next()
	if err != nil {
		t.Fatal(err)
	}
	skew := ShardSkewProfile()
	sweeps := 0
	for _, tx := range blk.Txs {
		for i := uint64(0); i < 4; i++ {
			if tx.From == types.AddressFromUint64("bot/"+skew.Name, i) {
				if tx.To != types.AddressFromUint64("collect/"+skew.Name, i) {
					t.Fatalf("bot %d paid %v, want its paired collector", i, tx.To)
				}
				sweeps++
			}
		}
	}
	if sweeps < len(blk.Txs)/3 {
		t.Fatalf("only %d/%d sweep transactions; HotSenderFrac=0.6 expected more", sweeps, len(blk.Txs))
	}
}

// TestSweepKnobsPreserveLegacyStreams: profiles without sweep knobs must
// generate bit-identical histories to the pre-knob generator — the random
// stream is consumed only when the knob is set, so the recorded E7–E10
// baselines stay valid.
func TestSweepKnobsPreserveLegacyStreams(t *testing.T) {
	for _, p := range []Profile{EthereumProfile(), ShardHotShardProfile()} {
		a, err := NewAcctGen(p, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		// The same profile with sweep fields explicitly zeroed (they are
		// already zero; this guards against future defaulting).
		q := p
		for i := range q.Eras {
			q.Eras[i].HotSenderFrac = 0
			q.Eras[i].HotSenders = 0
			q.Eras[i].HotSenderRotate = 0
		}
		b, err := NewAcctGen(q, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		for {
			ba, _, oka, err := a.Next()
			if err != nil {
				t.Fatal(err)
			}
			bb, _, okb, err := b.Next()
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb {
				t.Fatal("histories diverge in length")
			}
			if !oka {
				break
			}
			if len(ba.Txs) != len(bb.Txs) {
				t.Fatalf("block %d: %d vs %d txs", ba.Height, len(ba.Txs), len(bb.Txs))
			}
			for i := range ba.Txs {
				if ba.Txs[i].Hash() != bb.Txs[i].Hash() {
					t.Fatalf("block %d tx %d differs", ba.Height, i)
				}
			}
		}
	}
}
