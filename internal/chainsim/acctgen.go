package chainsim

import (
	"fmt"
	"math"
	"sort"

	"txconcur/internal/account"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// Account-model generator notes.
//
// In the account data model the TDG's nodes are addresses, so conflicts come
// from address sharing *within a block*: repeated senders (pools, bots),
// popular receivers (exchanges — the paper's Poloniex example in Figure 1b),
// popular contracts, and internal call targets (shared tokens). The
// generator reproduces each mechanism:
//
//   - a per-block active sender set whose size (ActiveFrac × transactions)
//     controls sender reuse and with it the single-transaction conflict
//     rate;
//   - exchange deposits (ExchangeFrac) that agglomerate into the block's
//     largest connected component, controlling the group conflict rate;
//   - contract calls (ContractFrac) against a Zipf-popular contract
//     population, with router contracts emitting real internal transactions
//     through the VM;
//   - contract creations (CreationFrac) from a rotating developer pool:
//     high-gas and usually unconflicted, which reproduces the paper's
//     observation that the gas-weighted conflict rate sits below the
//     transaction-weighted one (§IV-A).

// maxUserPool caps the simulated user population. Within-block conflict
// statistics depend on the Zipf head of the population, which is stable
// beyond this size; the cap keeps memory flat for late Ethereum eras.
const maxUserPool = 50_000

// userEndowment is the genesis balance of every simulated account.
const userEndowment account.Amount = 1 << 42

// devPoolSize is the number of rotating developer accounts used for
// contract creations.
const devPoolSize = 256

// contractKind distinguishes the deployed contract archetypes.
type contractKind int

const (
	// kindToken writes one storage slot keyed by the caller: no internal
	// transactions (an ERC20-style transfer bookkeeping).
	kindToken contractKind = iota + 1
	// kindRouter updates a usage counter and calls one or two other
	// contracts: one or two internal transactions per invocation.
	kindRouter
	// kindDeep calls a router, which calls further — internal chains of
	// depth ≥ 2 like the Figure 1b ElcoinDb cascade.
	kindDeep
)

// deployedContract is one contract available to the workload.
type deployedContract struct {
	addr types.Address
	kind contractKind
}

// AcctGen generates a validated, VM-executed history for an account-model
// profile.
type AcctGen struct {
	profile Profile
	smp     *sampler
	chain   *account.Chain

	users     []types.Address
	nonces    []uint64
	userRawE  []float64 // per-user quantile for the home exchange
	userRawC  []float64 // per-user quantile for the favourite contract
	devs      []types.Address
	devNonces []uint64
	devNext   int
	exchanges []types.Address
	hot       []types.Address // hot receivers: credit-only, never send
	// Sweep bots and their paired collectors (bot i always pays
	// collectors[i]): the machinery of the Shard Skew and Shard Drift
	// workloads. Bots are dedicated senders outside the user
	// pool, so their nonce chains are not diluted by role reassignment.
	bots       []types.Address
	botNonces  []uint64
	collectors []types.Address
	contracts  []deployedContract
	miners     []types.Address

	schedule []int
	eraIdx   int
	eraPos   int
	time     int64
	prepared int // eras whose contracts have been deployed
}

// NewAcctGen prepares a generator for the given account profile; numBlocks
// history blocks are distributed across eras by weight.
func NewAcctGen(p Profile, numBlocks int, seed int64) (*AcctGen, error) {
	if p.Model != Account {
		return nil, fmt.Errorf("chainsim: profile %q is not account-model", p.Name)
	}
	if len(p.Eras) == 0 {
		return nil, fmt.Errorf("chainsim: profile %q has no eras", p.Name)
	}
	g := &AcctGen{
		profile:  p,
		smp:      newSampler(seed),
		chain:    account.NewChain(),
		schedule: eraSchedule(p, numBlocks),
		time:     p.Eras[0].StartTime,
	}

	maxUsers, maxExchanges, maxHot, maxBots := 0, 0, 0, 0
	for _, e := range p.Eras {
		if e.Users > maxUsers {
			maxUsers = e.Users
		}
		if e.Exchanges > maxExchanges {
			maxExchanges = e.Exchanges
		}
		if e.HotReceivers > maxHot {
			maxHot = e.HotReceivers
		}
		if n := e.HotSenderRotate + e.HotSenders; n > maxBots {
			maxBots = n
		}
	}
	if maxUsers > maxUserPool {
		maxUsers = maxUserPool
	}
	if maxUsers < 1 {
		maxUsers = 1
	}

	st := g.chain.State()
	g.users = make([]types.Address, maxUsers)
	g.nonces = make([]uint64, maxUsers)
	g.userRawE = make([]float64, maxUsers)
	g.userRawC = make([]float64, maxUsers)
	for i := range g.users {
		g.users[i] = types.AddressFromUint64("user/"+p.Name, uint64(i))
		st.AddBalance(g.users[i], userEndowment)
		g.userRawE[i] = g.smp.rng.Float64()
		g.userRawC[i] = g.smp.rng.Float64()
	}
	g.devs = make([]types.Address, devPoolSize)
	g.devNonces = make([]uint64, devPoolSize)
	for i := range g.devs {
		g.devs[i] = types.AddressFromUint64("dev/"+p.Name, uint64(i))
		st.AddBalance(g.devs[i], userEndowment)
	}
	g.exchanges = make([]types.Address, maxExchanges)
	for i := range g.exchanges {
		g.exchanges[i] = types.AddressFromUint64("exchange/"+p.Name, uint64(i))
	}
	g.hot = make([]types.Address, maxHot)
	for i := range g.hot {
		g.hot[i] = types.AddressFromUint64("hot/"+p.Name, uint64(i))
	}
	g.bots = make([]types.Address, maxBots)
	g.botNonces = make([]uint64, maxBots)
	g.collectors = make([]types.Address, maxBots)
	for i := range g.bots {
		g.bots[i] = types.AddressFromUint64("bot/"+p.Name, uint64(i))
		g.collectors[i] = types.AddressFromUint64("collect/"+p.Name, uint64(i))
		st.AddBalance(g.bots[i], userEndowment)
	}
	g.miners = make([]types.Address, 4)
	for i := range g.miners {
		g.miners[i] = types.AddressFromUint64("miner/"+p.Name, uint64(i))
	}
	st.DiscardJournal()

	g.deployEraContracts(0)
	return g, nil
}

// Chain exposes the validated chain built so far.
func (g *AcctGen) Chain() *account.Chain { return g.chain }

// Remaining reports how many history blocks are left to generate.
func (g *AcctGen) Remaining() int {
	n := 0
	for i, c := range g.schedule {
		if i > g.eraIdx {
			n += c
		} else if i == g.eraIdx {
			n += c - g.eraPos
		}
	}
	return n
}

// deployEraContracts installs the popular-contract population of the given
// era directly into state (pre-history deployments; in-history creations go
// through regular transactions). Contracts deployed for earlier eras stay.
func (g *AcctGen) deployEraContracts(eraIdx int) {
	era := &g.profile.Eras[eraIdx]
	st := g.chain.State()
	for len(g.contracts) < era.Contracts {
		i := len(g.contracts)
		addr := types.AddressFromUint64("contract/"+g.profile.Name, uint64(i))
		var kind contractKind
		switch roll := g.smp.rng.Float64(); {
		case roll < 0.5 || i%clusterSize < 2:
			kind = kindToken
		case roll < 0.8:
			kind = kindRouter
		default:
			kind = kindDeep
		}
		st.SetCode(addr, g.contractCode(kind, i, era))
		g.contracts = append(g.contracts, deployedContract{addr: addr, kind: kind})
	}
	st.DiscardJournal()
	g.prepared = eraIdx + 1
}

// clusterSize partitions the contract population into disjoint ecosystems:
// a router only references contracts of its own cluster. Real contract
// ecosystems (a DEX and its tokens, the Figure 1b ElcoinDb cascade) are
// internally dense but externally disconnected; without the partition,
// overlapping reference windows would percolate the whole contract space
// into one artificial mega-component.
const clusterSize = 12

// contractCode assembles the archetype's code. Routers and deep contracts
// reference earlier contracts of their own cluster through their address
// tables, so internal call chains stay inside the ecosystem and terminate
// at tokens. The era's InternalDepth scales the router fan-out.
func (g *AcctGen) contractCode(kind contractKind, idx int, era *Era) []byte {
	recent := func() types.Address {
		lo := idx - idx%clusterSize
		if lo >= idx {
			// First contract of its cluster: self-contained token.
			return types.AddressFromUint64("contract/"+g.profile.Name, uint64(idx))
		}
		return g.contracts[lo+g.smp.rng.Intn(idx-lo)].addr
	}
	switch kind {
	case kindRouter:
		// Total calls scale with the era's InternalDepth, but they hit only
		// one or two *distinct* targets (batch operations repeat calls to
		// the same token): internal-transaction volume and component
		// bridging are controlled independently.
		fan := int(2*era.InternalDepth) + g.smp.geometric(0.5)
		if fan < 1 {
			fan = 1
		}
		if fan > 10 {
			fan = 10
		}
		distinct := 1 + g.smp.rng.Intn(2)
		if distinct > fan {
			distinct = fan
		}
		targets := make([]types.Address, distinct)
		for i := range targets {
			targets[i] = recent()
		}
		asm := vm.NewAsm().
			// Usage counter in slot 0.
			Push(0).Op(vm.OpSload).Push(1).Op(vm.OpAdd).
			Push(0).Op(vm.OpSwap, vm.OpSstore)
		for i := 0; i < fan; i++ {
			asm.Push(0).Op(vm.OpArg).PushAddr(i%distinct).Op(vm.OpCall, vm.OpPop)
		}
		asm.Op(vm.OpStop)
		return vm.EncodeContract(vm.Contract{Code: asm.Bytes(), AddrTable: targets})
	case kindDeep:
		// Call the cluster's most recent router (which fans out further)
		// plus a token, like the Figure 1b cascade.
		router := recent()
		for j := idx - 1; j >= idx-idx%clusterSize && j >= 0; j-- {
			if g.contracts[j].kind == kindRouter {
				router = g.contracts[j].addr
				break
			}
		}
		code := vm.NewAsm().
			Push(1).Op(vm.OpSload).Push(1).Op(vm.OpAdd).
			Push(1).Op(vm.OpSwap, vm.OpSstore).
			Push(0).Op(vm.OpArg).PushAddr(0).Op(vm.OpCall, vm.OpPop).
			Push(0).Op(vm.OpArg).PushAddr(1).Op(vm.OpCall, vm.OpPop).
			Op(vm.OpStop).
			Bytes()
		return vm.EncodeContract(vm.Contract{Code: code, AddrTable: []types.Address{router, recent()}})
	default: // kindToken
		// storage[fingerprint(caller)] = arg: per-user balance bookkeeping.
		code := vm.NewAsm().
			Op(vm.OpCaller, vm.OpArg, vm.OpSstore, vm.OpStop).
			Bytes()
		return vm.EncodeContract(vm.Contract{Code: code})
	}
}

// era returns the interpolated parameters for the current position.
func (g *AcctGen) era() Era {
	cur := &g.profile.Eras[g.eraIdx]
	var next *Era
	if g.eraIdx+1 < len(g.profile.Eras) {
		next = &g.profile.Eras[g.eraIdx+1]
	}
	frac := 0.0
	if c := g.schedule[g.eraIdx]; c > 1 {
		frac = float64(g.eraPos) / float64(c-1)
	}
	return interpolate(cur, next, frac)
}

// Next generates, executes and appends the next history block, returning it
// with its receipts. The third return value is false when the schedule is
// exhausted.
//
// Era transitions (including the direct deployment of the new era's
// contract population) happen at the *end* of the call, so that between
// calls Chain().State() is exactly the pre-state of the next block —
// callers may snapshot it and replay the returned block against the copy.
func (g *AcctGen) Next() (*account.Block, []*account.Receipt, bool, error) {
	if g.eraIdx >= len(g.schedule) {
		return nil, nil, false, nil
	}
	era := g.era()
	g.eraPos++
	g.time += era.BlockInterval

	blk := g.buildBlock(&era)
	receipts, err := g.chain.Append(blk)
	if err != nil {
		return nil, nil, false, fmt.Errorf("chainsim: generated invalid block %d: %w", blk.Height, err)
	}

	// Advance to the next era, deploying its contracts now so the state
	// already reflects the next block's pre-state.
	for g.eraIdx < len(g.schedule) && g.eraPos >= g.schedule[g.eraIdx] {
		g.eraIdx++
		g.eraPos = 0
		if g.eraIdx < len(g.profile.Eras) {
			if t := g.profile.Eras[g.eraIdx].StartTime; t > g.time {
				g.time = t
			}
			g.deployEraContracts(g.eraIdx)
		}
	}
	return blk, receipts, true, nil
}

// userPool returns the effective user pool size for the era.
func (g *AcctGen) userPool(era *Era) int {
	n := era.Users
	if n > len(g.users) {
		n = len(g.users)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// buildBlock assembles one block of transactions according to the era
// parameters. Nonces are assigned from the generator's local counters,
// which mirror the chain state exactly because only this generator sends
// transactions.
//
// Senders are role-specialised within a block (a bot deposits, a trader
// calls its exchange, a user pays peers), with per-user stable attributes:
// every user has a fixed home exchange and favourite contract, Zipf-
// distributed across the population. This mirrors observed behaviour and
// prevents single senders from artificially bridging the block's largest
// components.
func (g *AcctGen) buildBlock(era *Era) *account.Block {
	target := g.smp.txCount(era.TxPerBlock, era.TxPerBlockJitter)
	pool := g.userPool(era)

	// Role budgets; the random remainder keeps expectations exact on small
	// blocks.
	frac := func(f float64) int { return int(f*float64(target) + g.smp.rng.Float64()) }
	nCreate := frac(era.CreationFrac)
	nContract := frac(era.ContractFrac)
	nDeposit := frac(era.ExchangeFrac)
	// The hot-receiver and sweep-bot draws happen only when their knobs are
	// set, so profiles without them consume exactly the historical random
	// stream.
	nHot := 0
	if era.HotReceiverFrac > 0 && era.HotReceivers > 0 && len(g.hot) > 0 {
		nHot = frac(era.HotReceiverFrac)
	}
	nSweep := 0
	if era.HotSenderFrac > 0 && era.HotSenders > 0 && len(g.bots) > 0 {
		nSweep = frac(era.HotSenderFrac)
	}
	if len(g.contracts) == 0 {
		nContract = 0
	}
	if len(g.exchanges) == 0 || era.Exchanges == 0 {
		nDeposit = 0
	}
	if nCreate+nContract+nDeposit+nHot+nSweep > target {
		nSweep = target - nCreate - nContract - nDeposit - nHot
		if nSweep < 0 {
			nHot += nSweep
			nSweep = 0
		}
		if nHot < 0 {
			nDeposit += nHot
			nHot = 0
		}
		if nDeposit < 0 {
			nContract += nDeposit
			nDeposit = 0
		}
		if nContract < 0 {
			nCreate += nContract
			nContract = 0
		}
	}
	nP2P := target - nCreate - nContract - nDeposit - nHot - nSweep

	// Active sender set: distinct uniform draws from the pool, partitioned
	// by role in proportion to the role budgets.
	activeN := int(math.Round(era.ActiveFrac * float64(target)))
	if activeN < 1 {
		activeN = 1
	}
	active := make([]int, activeN)
	for i := range active {
		active[i] = g.smp.rng.Intn(pool)
	}
	nonCreate := nContract + nDeposit + nHot + nP2P
	segment := func(role, total int) []int {
		if nonCreate == 0 || total == 0 {
			return active[:1]
		}
		size := activeN * total / nonCreate
		if size < 1 {
			size = 1
		}
		if role+size > activeN {
			role = activeN - size
			if role < 0 {
				role, size = 0, activeN
			}
		}
		return active[role : role+size]
	}
	off := 0
	depositSenders := segment(off, nDeposit)
	off += len(depositSenders)
	if off >= activeN {
		off = activeN - 1
	}
	contractSenders := segment(off, nContract)
	off += len(contractSenders)
	if off >= activeN {
		off = activeN - 1
	}
	// The hot-sender segment exists only when hot transfers do, so the p2p
	// segment (and the random stream) is untouched for legacy profiles.
	hotSenders := active[:0]
	if nHot > 0 {
		hotSenders = segment(off, nHot)
		off += len(hotSenders)
		if off >= activeN {
			off = activeN - 1
		}
	}
	p2pSenders := segment(off, nP2P)

	exchQ := newZipfQuantile(1.5, mini(era.Exchanges, len(g.exchanges)))
	contractQ := newZipfQuantile(1.05, len(g.contracts))

	txs := make([]*account.Transaction, 0, target)
	for i := 0; i < nDeposit; i++ {
		s := depositSenders[g.smp.rng.Intn(len(depositSenders))]
		home := exchQ.index(g.userRawE[s])
		txs = append(txs, g.transferTx(s, g.exchanges[home]))
	}
	for i := 0; i < nContract; i++ {
		s := contractSenders[g.smp.rng.Intn(len(contractSenders))]
		c := g.contracts[contractQ.index(g.userRawC[s])]
		txs = append(txs, g.callTx(s, c.addr))
	}
	if nHot > 0 {
		// Hot transfers: a per-transaction Zipf draw across the hot pool —
		// a flash crowd converges on the head address, a token sale spreads
		// a little further down.
		hotQ := newZipfQuantile(1.3, mini(era.HotReceivers, len(g.hot)))
		for i := 0; i < nHot; i++ {
			s := hotSenders[g.smp.rng.Intn(len(hotSenders))]
			txs = append(txs, g.transferTx(s, g.hot[hotQ.index(g.smp.rng.Float64())]))
		}
	}
	if nSweep > 0 {
		// Sweep chains: each draw picks a bot from the era's active window
		// (the rotation offset is what makes the hotspot drift between
		// eras) and pays its paired collector, extending the bot's nonce
		// chain.
		lo := era.HotSenderRotate
		if lo >= len(g.bots) {
			lo = len(g.bots) - 1
		}
		if lo < 0 {
			lo = 0
		}
		width := mini(era.HotSenders, len(g.bots)-lo)
		for i := 0; i < nSweep; i++ {
			txs = append(txs, g.sweepTx(lo+g.smp.rng.Intn(width)))
		}
	}
	for i := 0; i < nP2P; i++ {
		s := p2pSenders[g.smp.rng.Intn(len(p2pSenders))]
		recv := g.users[g.smp.rng.Intn(pool)]
		txs = append(txs, g.transferTx(s, recv))
	}
	for i := 0; i < nCreate; i++ {
		txs = append(txs, g.creationTx(era))
	}
	// Shuffle so block order does not encode the role (realistic and
	// irrelevant to the TDG, which is order-free in the account model).
	g.smp.rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
	// Restore per-sender nonce order after the shuffle: transactions from
	// the same sender must appear in increasing nonce order to execute.
	fixNonceOrder(txs)

	return &account.Block{
		Height:   uint64(g.chain.Height()),
		PrevHash: g.chain.TipHash(),
		Time:     g.time,
		Coinbase: g.miners[g.smp.rng.Intn(len(g.miners))],
		Txs:      txs,
	}
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fixNonceOrder restores increasing nonce order per sender while keeping
// transaction positions otherwise intact: for each sender, the multiset of
// positions its transactions occupy is preserved and the transactions are
// placed into those positions in nonce order.
func fixNonceOrder(txs []*account.Transaction) {
	positions := make(map[types.Address][]int)
	for i, tx := range txs {
		positions[tx.From] = append(positions[tx.From], i)
	}
	for _, pos := range positions {
		if len(pos) < 2 {
			continue
		}
		group := make([]*account.Transaction, 0, len(pos))
		for _, p := range pos {
			group = append(group, txs[p])
		}
		sort.Slice(group, func(i, j int) bool { return group[i].Nonce < group[j].Nonce })
		for k, p := range pos {
			txs[p] = group[k]
		}
	}
}

// transferTx builds a plain value transfer from user index sender.
func (g *AcctGen) transferTx(sender int, to types.Address) *account.Transaction {
	tx := &account.Transaction{
		From:     g.users[sender],
		To:       to,
		Value:    account.Amount(1000 + g.smp.rng.Intn(100_000)),
		Nonce:    g.nonces[sender],
		GasLimit: account.GasTx,
		GasPrice: 1 + account.Amount(g.smp.rng.Intn(5)),
	}
	g.nonces[sender]++
	return tx
}

// sweepTx builds one step of bot b's consolidation stream: a plain value
// transfer into the bot's fixed collector address, continuing its nonce
// chain.
func (g *AcctGen) sweepTx(b int) *account.Transaction {
	tx := &account.Transaction{
		From:     g.bots[b],
		To:       g.collectors[b],
		Value:    account.Amount(500 + g.smp.rng.Intn(50_000)),
		Nonce:    g.botNonces[b],
		GasLimit: account.GasTx,
		GasPrice: 1 + account.Amount(g.smp.rng.Intn(5)),
	}
	g.botNonces[b]++
	return tx
}

// callTx builds a contract invocation from user index sender.
func (g *AcctGen) callTx(sender int, contract types.Address) *account.Transaction {
	tx := &account.Transaction{
		From:     g.users[sender],
		To:       contract,
		Value:    0,
		Nonce:    g.nonces[sender],
		Arg:      g.smp.rng.Uint64() % 1_000_000,
		GasLimit: 2_000_000,
		GasPrice: 1 + account.Amount(g.smp.rng.Intn(5)),
	}
	g.nonces[sender]++
	return tx
}

// creationTx builds a contract deployment from the rotating developer pool.
// The deployed code is a token-like contract with size jitter, so creations
// carry much more gas than transfers while rarely conflicting — the paper's
// explanation for the gap between the gas- and transaction-weighted conflict
// rates.
func (g *AcctGen) creationTx(era *Era) *account.Transaction {
	dev := g.devNext % len(g.devs)
	g.devNext++
	asm := vm.NewAsm().Op(vm.OpCaller, vm.OpArg, vm.OpSstore)
	// Code-size jitter: dead code after STOP.
	pad := 150 + g.smp.rng.Intn(450)
	asm.Op(vm.OpStop)
	for i := 0; i < pad; i++ {
		asm.Op(vm.OpPC)
	}
	code := vm.EncodeContract(vm.Contract{Code: asm.Bytes()})
	intrinsic := account.GasTx + account.GasTxCreate + account.GasCodeByte*uint64(len(code))
	tx := &account.Transaction{
		From:     g.devs[dev],
		Value:    0,
		Nonce:    g.devNonces[dev],
		GasLimit: intrinsic + 1000,
		GasPrice: 1 + account.Amount(g.smp.rng.Intn(5)),
		Code:     code,
	}
	g.devNonces[dev]++
	return tx
}
