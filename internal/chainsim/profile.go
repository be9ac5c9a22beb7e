// Package chainsim generates synthetic-but-executable workload histories for
// the seven public blockchains the paper analyses (Table I): Bitcoin,
// Bitcoin Cash, Litecoin, Dogecoin (UTXO model) and Ethereum, Ethereum
// Classic, Zilliqa (account model).
//
// The paper's empirical study consumes historical BigQuery datasets that are
// not available offline, so this package substitutes workload generators
// whose *dependency structure* is calibrated, era by era, to the conflict
// rates and transaction loads the paper reports (DESIGN.md §2 and §5). The
// generated blocks are real blocks: UTXO blocks validate against the
// utxo.Chain rules (value conservation, script checks), and account blocks
// execute through the VM, producing the internal-transaction traces the TDG
// analysis requires.
//
// Every generator is deterministic under its seed.
package chainsim

// DataModel distinguishes the two transaction models of §II-A.
type DataModel int

// Data models. Values start at one so the zero value is invalid.
const (
	UTXO DataModel = iota + 1
	Account
)

// String returns the paper's name for the data model.
func (m DataModel) String() string {
	switch m {
	case UTXO:
		return "UTXO"
	case Account:
		return "Account"
	default:
		return "unknown"
	}
}

// Era is a span of blocks with stationary workload parameters. A chain's
// history is a sequence of eras; the parameters are interpolated linearly
// within each era toward the next, so the bucketed series evolve smoothly
// as in the paper's figures.
type Era struct {
	// Name labels the era (usually a year, e.g. "2017").
	Name string
	// Weight is the era's share of generated blocks (relative to the other
	// eras' weights).
	Weight float64
	// StartTime is the unix time of the era's first block.
	StartTime int64
	// BlockInterval is the average block spacing in seconds.
	BlockInterval int64

	// TxPerBlock is the mean number of regular transactions per block.
	TxPerBlock float64
	// TxPerBlockJitter is the multiplicative spread of the per-block
	// transaction count (0.3 means roughly ±30%).
	TxPerBlockJitter float64
	// Users is the size of the simulated user population.
	Users int

	// UTXO-model knobs.

	// ChainStartProb is the probability that a generation step starts an
	// intra-block spend chain instead of an independent transaction —
	// the exchange/pool sweep behaviour behind the paper's Figure 6.
	ChainStartProb float64
	// ChainContinueProb is the geometric continuation probability of a
	// spend chain (chains have length ≥ 2).
	ChainContinueProb float64
	// LongChainProb is the probability that a started chain is a long
	// sweep with mean length LongChainMean (the Figure 6 pattern).
	LongChainProb float64
	// LongChainMean is the mean length of long sweep chains.
	LongChainMean float64
	// MultiInputProb is the probability a transaction consolidates several
	// inputs (drives the input-TXOs series of Figure 5a).
	MultiInputProb float64

	// Account-model knobs.

	// ActiveFrac scales the per-block active sender set: the number of
	// distinct senders active in a block is roughly ActiveFrac ×
	// TxPerBlock. Smaller values mean more sender reuse and a higher
	// single-transaction conflict rate.
	ActiveFrac float64
	// ExchangeFrac is the fraction of transactions that pay one of the
	// exchange hotspot addresses; deposits agglomerate into the block's
	// largest connected component (the paper's Poloniex example).
	ExchangeFrac float64
	// Exchanges is the number of distinct exchange hotspots.
	Exchanges int
	// ContractFrac is the fraction of transactions that invoke a smart
	// contract.
	ContractFrac float64
	// CreationFrac is the fraction of transactions that deploy a new
	// contract (high gas, usually unconflicted — the paper's explanation
	// for the lower gas-weighted conflict rate, §IV-A).
	CreationFrac float64
	// InternalDepth is the mean depth of internal call chains triggered by
	// contract calls.
	InternalDepth float64
	// Contracts is the number of popular deployed contracts.
	Contracts int
	// HotReceiverFrac is the fraction of transactions that are plain value
	// transfers to one of a few hot receiver addresses (a token sale, an
	// airdrop payout, a flash-crowd target). Hot receivers never send and
	// carry no code, so their balance is only ever credited — the pure
	// delta–delta pattern operation-level conflict refinement exploits.
	HotReceiverFrac float64
	// HotReceivers is the number of distinct hot receiver addresses.
	HotReceivers int

	// Sweep-bot knobs (the Shard Skew and Shard Drift workloads). A sweep bot
	// is a dedicated sender — an exchange consolidation script, a payout
	// pool — that issues long same-sender nonce chains into its own fixed
	// collector address. Under sender-committee sharding the bot and its
	// collector usually land on different shards, so every sweep is
	// cross-shard and its nonce chain serialises the merge; a placement
	// policy that co-locates the pair converts the whole stream to
	// intra-shard work.

	// HotSenderFrac is the fraction of transactions issued by sweep bots.
	HotSenderFrac float64
	// HotSenders is the number of concurrently active bot/collector pairs.
	HotSenders int
	// HotSenderRotate offsets the active window into the bot pool: eras
	// with different offsets drift the hotspot onto fresh addresses.
	HotSenderRotate int
}

// Profile describes one blockchain: its Table I characteristics and its
// era schedule.
type Profile struct {
	// Name is the blockchain's name as in Table I.
	Name string
	// Model is the data model (Table I column 2).
	Model DataModel
	// Consensus is the consensus family (Table I column 3).
	Consensus string
	// SmartContracts reports Turing-complete contract support (Table I
	// column 4).
	SmartContracts bool
	// DataSource is where the paper obtained the chain's data (Table I
	// column 5).
	DataSource string
	// LaunchYear is the chain's first year with traffic.
	LaunchYear int
	// Eras is the era schedule, in chronological order.
	Eras []Era
}

// TotalWeight sums the era weights.
func (p Profile) TotalWeight() float64 {
	var w float64
	for _, e := range p.Eras {
		w += e.Weight
	}
	return w
}

// unix timestamps for the first of January of each year, precomputed so the
// profiles read naturally. Leap years are handled by the cumulative sums.
func jan1(year int) int64 {
	// Days since 1970-01-01 for jan 1 of the given year.
	days := int64(0)
	for y := 1970; y < year; y++ {
		days += 365
		if (y%4 == 0 && y%100 != 0) || y%400 == 0 {
			days++
		}
	}
	return days * 86400
}

// AllProfiles returns the seven chain profiles of Table I, in the paper's
// order.
func AllProfiles() []Profile {
	return []Profile{
		BitcoinProfile(),
		BitcoinCashProfile(),
		LitecoinProfile(),
		DogecoinProfile(),
		EthereumProfile(),
		EthereumClassicProfile(),
		ZilliqaProfile(),
	}
}

// HotKeyProfiles returns the hot-key stress workloads used by the
// operation-level experiments (E8). They are not part of the paper's Table I
// (AllProfiles): each one concentrates traffic on a handful of addresses so
// that the key-level TDG collapses the block into one component, which is
// exactly where delta-write refinement matters. "Contract Crowd" is the
// delta-free control: its hot keys are contracts whose storage is genuinely
// shared, so refinement must change nothing.
func HotKeyProfiles() []Profile {
	return []Profile{
		TokenHotKeyProfile(),
		HotWalletProfile(),
		FlashCrowdProfile(),
		ContractCrowdProfile(),
	}
}

// ShardProfiles returns the cross-shard stress workloads used by the
// sharded-execution experiment (E9). Like the hot-key set they are not part
// of Table I: each one exercises a different shape of cross-shard traffic
// under sender-based committee assignment (core.ShardOf). "Shard Uniform"
// spreads load evenly but makes most transfers land on a foreign shard;
// "Shard Hot-Shard" concentrates the receivers of most transactions on a
// couple of hot addresses, so one shard's keys absorb nearly all
// cross-shard writes (the skew that commutative deltas dissolve); "Shard
// Cross-Heavy" is dominated by contract calls with deep internal chains,
// whose call targets span shards with genuinely shared storage.
func ShardProfiles() []Profile {
	return []Profile{
		ShardUniformProfile(),
		ShardHotShardProfile(),
		ShardCrossHeavyProfile(),
	}
}

// AdaptiveShardProfiles returns the sweep-bot workloads, built for the
// retired adaptive-placement experiment E11 and kept as sharded-engine
// stress (nodebench's sat-hotkey streams Shard Skew). Both are dominated
// by sweep bots — dedicated senders issuing nonce chains into fixed
// collector addresses — whose bot/collector pairs land on different
// shards under FNV assignment, so nearly every sweep is cross-shard and
// its nonce chain serialises the merge. "Shard Skew" keeps the same bots
// active for the whole history; "Shard Drift" rotates the active bot
// window era by era onto fresh addresses.
func AdaptiveShardProfiles() []Profile {
	return []Profile{
		ShardSkewProfile(),
		ShardDriftProfile(),
	}
}

// ProfileByName returns the profile with the given name and whether it
// exists, searching the paper's Table I chains and the hot-key,
// cross-shard and sweep-bot extension profiles.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range AllProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range HotKeyProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range ShardProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range AdaptiveShardProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// BitcoinProfile models Bitcoin 2009–2019: transaction counts grow from a
// handful to >2000 per block with ~2 inputs per transaction; the
// single-transaction conflict rate settles around 13–15% and the group rate
// around 1% (paper Figure 5).
func BitcoinProfile() Profile {
	return Profile{
		Name: "Bitcoin", Model: UTXO, Consensus: "PoW",
		SmartContracts: false, DataSource: "BigQuery", LaunchYear: 2009,
		Eras: []Era{
			{Name: "2009-2010", Weight: 2, StartTime: jan1(2009), BlockInterval: 600,
				TxPerBlock: 3, TxPerBlockJitter: 0.8, Users: 300,
				ChainStartProb: 0.010, ChainContinueProb: 0.25, LongChainProb: 0.01, LongChainMean: 8, MultiInputProb: 0.15},
			{Name: "2011-2012", Weight: 2, StartTime: jan1(2011), BlockInterval: 600,
				TxPerBlock: 40, TxPerBlockJitter: 0.6, Users: 4000,
				ChainStartProb: 0.022, ChainContinueProb: 0.30, LongChainProb: 0.02, LongChainMean: 10, MultiInputProb: 0.2},
			{Name: "2013-2014", Weight: 2, StartTime: jan1(2013), BlockInterval: 600,
				TxPerBlock: 300, TxPerBlockJitter: 0.5, Users: 40000,
				ChainStartProb: 0.035, ChainContinueProb: 0.32, LongChainProb: 0.02, LongChainMean: 12, MultiInputProb: 0.3},
			{Name: "2015-2016", Weight: 2, StartTime: jan1(2015), BlockInterval: 600,
				TxPerBlock: 1100, TxPerBlockJitter: 0.4, Users: 150000,
				ChainStartProb: 0.045, ChainContinueProb: 0.33, LongChainProb: 0.02, LongChainMean: 14, MultiInputProb: 0.4},
			{Name: "2017-2018", Weight: 2, StartTime: jan1(2017), BlockInterval: 600,
				TxPerBlock: 2100, TxPerBlockJitter: 0.3, Users: 400000,
				ChainStartProb: 0.055, ChainContinueProb: 0.34, LongChainProb: 0.025, LongChainMean: 16, MultiInputProb: 0.45},
			{Name: "2019", Weight: 1, StartTime: jan1(2019), BlockInterval: 600,
				TxPerBlock: 2300, TxPerBlockJitter: 0.3, Users: 500000,
				ChainStartProb: 0.055, ChainContinueProb: 0.34, LongChainProb: 0.025, LongChainMean: 18, MultiInputProb: 0.45},
		},
	}
}

// BitcoinCashProfile models Bitcoin Cash from the August 2017 fork: up to an
// order of magnitude fewer transactions than Bitcoin, with *higher* conflict
// rates — the paper attributes this to a smaller user base dominated by
// large exchanges (§IV-C).
func BitcoinCashProfile() Profile {
	return Profile{
		Name: "Bitcoin Cash", Model: UTXO, Consensus: "PoW",
		SmartContracts: false, DataSource: "BigQuery", LaunchYear: 2017,
		Eras: []Era{
			{Name: "2017H2", Weight: 1, StartTime: jan1(2017) + 181*86400, BlockInterval: 600,
				TxPerBlock: 250, TxPerBlockJitter: 0.9, Users: 12000,
				ChainStartProb: 0.09, ChainContinueProb: 0.40, LongChainProb: 0.05, LongChainMean: 18, MultiInputProb: 0.4},
			{Name: "2018", Weight: 2, StartTime: jan1(2018), BlockInterval: 600,
				TxPerBlock: 160, TxPerBlockJitter: 0.8, Users: 9000,
				ChainStartProb: 0.10, ChainContinueProb: 0.42, LongChainProb: 0.06, LongChainMean: 20, MultiInputProb: 0.4},
			{Name: "2019", Weight: 2, StartTime: jan1(2019), BlockInterval: 600,
				TxPerBlock: 220, TxPerBlockJitter: 0.8, Users: 10000,
				ChainStartProb: 0.10, ChainContinueProb: 0.42, LongChainProb: 0.06, LongChainMean: 20, MultiInputProb: 0.4},
		},
	}
}

// LitecoinProfile models Litecoin 2011–2019: a Bitcoin spin-off with a
// higher block frequency and lower per-block transaction counts.
func LitecoinProfile() Profile {
	return Profile{
		Name: "Litecoin", Model: UTXO, Consensus: "PoW",
		SmartContracts: false, DataSource: "BigQuery", LaunchYear: 2011,
		Eras: []Era{
			{Name: "2011-2013", Weight: 2, StartTime: jan1(2011) + 280*86400, BlockInterval: 150,
				TxPerBlock: 4, TxPerBlockJitter: 0.9, Users: 1500,
				ChainStartProb: 0.03, ChainContinueProb: 0.3, LongChainProb: 0.01, LongChainMean: 6, MultiInputProb: 0.2},
			{Name: "2014-2016", Weight: 2, StartTime: jan1(2014), BlockInterval: 150,
				TxPerBlock: 12, TxPerBlockJitter: 0.8, Users: 8000,
				ChainStartProb: 0.04, ChainContinueProb: 0.32, LongChainProb: 0.015, LongChainMean: 8, MultiInputProb: 0.25},
			{Name: "2017-2019", Weight: 3, StartTime: jan1(2017), BlockInterval: 150,
				TxPerBlock: 90, TxPerBlockJitter: 0.6, Users: 40000,
				ChainStartProb: 0.05, ChainContinueProb: 0.33, LongChainProb: 0.02, LongChainMean: 10, MultiInputProb: 0.3},
		},
	}
}

// DogecoinProfile models Dogecoin 2013–2019: Litecoin-like with an even
// higher block frequency, and bursty exchange-driven traffic.
func DogecoinProfile() Profile {
	return Profile{
		Name: "Dogecoin", Model: UTXO, Consensus: "PoW",
		SmartContracts: false, DataSource: "BigQuery", LaunchYear: 2013,
		Eras: []Era{
			{Name: "2014", Weight: 1, StartTime: jan1(2014), BlockInterval: 60,
				TxPerBlock: 25, TxPerBlockJitter: 1.0, Users: 6000,
				ChainStartProb: 0.06, ChainContinueProb: 0.36, LongChainProb: 0.03, LongChainMean: 10, MultiInputProb: 0.3},
			{Name: "2015-2017", Weight: 2, StartTime: jan1(2015), BlockInterval: 60,
				TxPerBlock: 12, TxPerBlockJitter: 0.9, Users: 5000,
				ChainStartProb: 0.06, ChainContinueProb: 0.36, LongChainProb: 0.03, LongChainMean: 10, MultiInputProb: 0.3},
			{Name: "2018-2019", Weight: 2, StartTime: jan1(2018), BlockInterval: 60,
				TxPerBlock: 30, TxPerBlockJitter: 0.8, Users: 9000,
				ChainStartProb: 0.07, ChainContinueProb: 0.36, LongChainProb: 0.03, LongChainMean: 12, MultiInputProb: 0.3},
		},
	}
}

// EthereumProfile models Ethereum July 2015 – 2019 (paper Figure 4): ~100
// regular transactions per block (~300 including internal ones); the
// transaction-weighted single-transaction conflict rate falls from ~80% to
// ~60% while the group rate falls from ~50% to a stable ~20%.
func EthereumProfile() Profile {
	return Profile{
		Name: "Ethereum", Model: Account, Consensus: "PoW",
		SmartContracts: true, DataSource: "BigQuery", LaunchYear: 2015,
		Eras: []Era{
			{Name: "2015H2", Weight: 1, StartTime: jan1(2015) + 212*86400, BlockInterval: 15,
				TxPerBlock: 8, TxPerBlockJitter: 0.8, Users: 2000,
				ActiveFrac: 0.55, ExchangeFrac: 0.48, Exchanges: 1,
				ContractFrac: 0.10, CreationFrac: 0.09, InternalDepth: 1.2, Contracts: 30},
			{Name: "2016", Weight: 2, StartTime: jan1(2016), BlockInterval: 15,
				TxPerBlock: 35, TxPerBlockJitter: 0.6, Users: 12000,
				ActiveFrac: 0.70, ExchangeFrac: 0.42, Exchanges: 2,
				ContractFrac: 0.15, CreationFrac: 0.06, InternalDepth: 1.5, Contracts: 120},
			{Name: "2017", Weight: 2, StartTime: jan1(2017), BlockInterval: 15,
				TxPerBlock: 120, TxPerBlockJitter: 0.5, Users: 120000,
				ActiveFrac: 1.10, ExchangeFrac: 0.36, Exchanges: 2,
				ContractFrac: 0.30, CreationFrac: 0.03, InternalDepth: 1.9, Contracts: 600},
			{Name: "2018", Weight: 2, StartTime: jan1(2018), BlockInterval: 15,
				TxPerBlock: 115, TxPerBlockJitter: 0.4, Users: 250000,
				ActiveFrac: 1.80, ExchangeFrac: 0.32, Exchanges: 3,
				ContractFrac: 0.38, CreationFrac: 0.015, InternalDepth: 1.8, Contracts: 1200},
			{Name: "2019", Weight: 2, StartTime: jan1(2019), BlockInterval: 14,
				TxPerBlock: 105, TxPerBlockJitter: 0.4, Users: 300000,
				ActiveFrac: 2.60, ExchangeFrac: 0.30, Exchanges: 3,
				ContractFrac: 0.42, CreationFrac: 0.012, InternalDepth: 1.7, Contracts: 1500},
		},
	}
}

// EthereumClassicProfile models Ethereum Classic from the July 2016 fork:
// an order of magnitude fewer transactions than Ethereum with much higher
// conflict rates (group rate ~70%, paper Figure 8) — the signature of a
// small user base dominated by a few exchanges.
func EthereumClassicProfile() Profile {
	return Profile{
		Name: "Ethereum Classic", Model: Account, Consensus: "PoW",
		SmartContracts: true, DataSource: "BigQuery", LaunchYear: 2016,
		Eras: []Era{
			{Name: "2016H2", Weight: 1, StartTime: jan1(2016) + 201*86400, BlockInterval: 14,
				TxPerBlock: 18, TxPerBlockJitter: 0.8, Users: 2500,
				ActiveFrac: 0.35, ExchangeFrac: 0.62, Exchanges: 1,
				ContractFrac: 0.06, CreationFrac: 0.01, InternalDepth: 1.2, Contracts: 40},
			{Name: "2017", Weight: 2, StartTime: jan1(2017), BlockInterval: 14,
				TxPerBlock: 15, TxPerBlockJitter: 0.8, Users: 3000,
				ActiveFrac: 0.32, ExchangeFrac: 0.68, Exchanges: 1,
				ContractFrac: 0.07, CreationFrac: 0.01, InternalDepth: 1.3, Contracts: 60},
			{Name: "2018-2019", Weight: 3, StartTime: jan1(2018), BlockInterval: 13,
				TxPerBlock: 11, TxPerBlockJitter: 0.8, Users: 2500,
				ActiveFrac: 0.30, ExchangeFrac: 0.72, Exchanges: 1,
				ContractFrac: 0.06, CreationFrac: 0.008, InternalDepth: 1.3, Contracts: 60},
		},
	}
}

// TokenHotKeyProfile models a token-distribution period: most transactions
// are plain transfers into a few sale/airdrop collection addresses, with a
// modest background of contract calls and peer payments. Key-level, the
// collection addresses merge most of the block into one component;
// operation-level, the credits commute and the block is almost embarrassingly
// parallel.
func TokenHotKeyProfile() Profile {
	return Profile{
		Name: "Token Hot-Key", Model: Account, Consensus: "PoW",
		SmartContracts: true, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "sale", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 100, TxPerBlockJitter: 0.3, Users: 30000,
				ActiveFrac: 2.0, ExchangeFrac: 0.05, Exchanges: 1,
				ContractFrac: 0.08, CreationFrac: 0.01, InternalDepth: 1.2, Contracts: 40,
				HotReceiverFrac: 0.65, HotReceivers: 4},
			{Name: "frenzy", Weight: 1, StartTime: jan1(2020) + 90*86400, BlockInterval: 15,
				TxPerBlock: 140, TxPerBlockJitter: 0.4, Users: 50000,
				ActiveFrac: 2.4, ExchangeFrac: 0.05, Exchanges: 1,
				ContractFrac: 0.06, CreationFrac: 0.005, InternalDepth: 1.2, Contracts: 40,
				HotReceiverFrac: 0.75, HotReceivers: 3},
		},
	}
}

// HotWalletProfile models an exchange hot wallet absorbing most of the
// chain's traffic: deposits from a wide sender population into a single
// exchange address — the Poloniex pattern of the paper's Figure 1b pushed to
// the workload's limit.
func HotWalletProfile() Profile {
	return Profile{
		Name: "Hot Wallet", Model: Account, Consensus: "PoW",
		SmartContracts: true, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "steady", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 120, TxPerBlockJitter: 0.3, Users: 40000,
				ActiveFrac: 2.5, ExchangeFrac: 0.82, Exchanges: 1,
				ContractFrac: 0.03, CreationFrac: 0.005, InternalDepth: 1.1, Contracts: 20,
				HotReceiverFrac: 0, HotReceivers: 0},
		},
	}
}

// FlashCrowdProfile models a flash crowd: nearly every transaction in the
// block pays the same single address (a viral fundraiser, an NFT mint
// treasury), with bursty block sizes. The extreme case where the key-level
// speed-up is pinned at ~1.
func FlashCrowdProfile() Profile {
	return Profile{
		Name: "Flash Crowd", Model: Account, Consensus: "PoW",
		SmartContracts: false, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "crowd", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 150, TxPerBlockJitter: 0.8, Users: 50000,
				ActiveFrac: 3.0, ExchangeFrac: 0, Exchanges: 0,
				ContractFrac: 0, CreationFrac: 0, InternalDepth: 0, Contracts: 0,
				HotReceiverFrac: 0.92, HotReceivers: 1},
		},
	}
}

// ContractCrowdProfile is the delta-free control for E8: every transaction
// invokes a contract from a small popular population, so the hot keys are
// contract storage — real shared state that commutes with nothing. Key-level
// and operation-level analyses must agree exactly on this workload.
func ContractCrowdProfile() Profile {
	return Profile{
		Name: "Contract Crowd", Model: Account, Consensus: "PoW",
		SmartContracts: true, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "crowd", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 80, TxPerBlockJitter: 0.3, Users: 20000,
				ActiveFrac: 2.0, ExchangeFrac: 0, Exchanges: 0,
				ContractFrac: 1.0, CreationFrac: 0, InternalDepth: 1.5, Contracts: 12,
				HotReceiverFrac: 0, HotReceivers: 0},
		},
	}
}

// ShardUniformProfile models uniformly distributed peer-to-peer traffic: a
// large user population paying random peers, no exchanges, no hot keys, no
// contracts. Under sender sharding the load balances almost perfectly
// across committees, but with uniform receivers roughly (s−1)/s of the
// transfers are cross-shard — the workload that measures the pure overhead
// of the cross-shard commit when almost nothing actually conflicts.
func ShardUniformProfile() Profile {
	return Profile{
		Name: "Shard Uniform", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: false, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "steady", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 120, TxPerBlockJitter: 0.3, Users: 30000,
				ActiveFrac: 2.5, ExchangeFrac: 0, Exchanges: 0,
				ContractFrac: 0, CreationFrac: 0, InternalDepth: 0, Contracts: 0,
				HotReceiverFrac: 0, HotReceivers: 0},
		},
	}
}

// ShardHotShardProfile models a skewed hot shard: most transactions are
// plain transfers into one or two hot receiver addresses, so whichever
// shard owns those addresses absorbs nearly every cross-shard write. At
// key level the hot balances serialise the cross-shard commit; at
// operation level the credits are blind deltas that merge commutatively
// across shards, so the skew costs (almost) nothing.
func ShardHotShardProfile() Profile {
	return Profile{
		Name: "Shard Hot-Shard", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: false, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "skew", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 120, TxPerBlockJitter: 0.3, Users: 30000,
				ActiveFrac: 2.5, ExchangeFrac: 0, Exchanges: 0,
				ContractFrac: 0, CreationFrac: 0, InternalDepth: 0, Contracts: 0,
				HotReceiverFrac: 0.7, HotReceivers: 2},
		},
	}
}

// ShardCrossHeavyProfile models contract-dominated traffic whose internal
// call chains span shards: deep router cascades against a popular contract
// population plus exchange deposits. Cross-shard transactions here carry
// real shared-storage conflicts that commute with nothing, so this is the
// adversarial workload for the cross-shard commit (high abort rate, the
// occasional whole-block fallback).
func ShardCrossHeavyProfile() Profile {
	return Profile{
		Name: "Shard Cross-Heavy", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: true, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "tangle", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 100, TxPerBlockJitter: 0.3, Users: 20000,
				ActiveFrac: 2.0, ExchangeFrac: 0.25, Exchanges: 2,
				ContractFrac: 0.45, CreationFrac: 0.01, InternalDepth: 2.2, Contracts: 60,
				HotReceiverFrac: 0, HotReceivers: 0},
		},
	}
}

// ShardSkewProfile models a stationary consolidation skew: four sweep bots
// (exchange consolidation scripts) issue most of the block as nonce chains
// into their fixed collectors, over a p2p background. Under static FNV
// assignment a bot and its collector usually live on different shards, so
// the sweeps dominate the cross-shard merge; the hotspot never moves, so a
// single learned placement (bot co-located with its collector, pairs
// spread across shards) recovers the loss for the rest of the history.
func ShardSkewProfile() Profile {
	return Profile{
		Name: "Shard Skew", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: false, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			{Name: "skew", Weight: 1, StartTime: jan1(2020), BlockInterval: 15,
				TxPerBlock: 120, TxPerBlockJitter: 0.3, Users: 25000,
				ActiveFrac: 2.5, ExchangeFrac: 0, Exchanges: 0,
				ContractFrac: 0, CreationFrac: 0, InternalDepth: 0, Contracts: 0,
				HotReceiverFrac: 0, HotReceivers: 0,
				HotSenderFrac: 0.6, HotSenders: 4, HotSenderRotate: 0},
		},
	}
}

// ShardDriftProfile models a drifting consolidation hotspot: the same
// sweep-bot traffic as Shard Skew, but the active bot window rotates onto
// four fresh bot/collector pairs at every era boundary — yesterday's
// placement is worthless tomorrow. It was the headline workload of the
// retired adaptive-placement experiment E11; static assignment pays the
// cross-shard merge on every era.
func ShardDriftProfile() Profile {
	era := func(name string, start int64, rotate int) Era {
		return Era{Name: name, Weight: 1, StartTime: start, BlockInterval: 15,
			TxPerBlock: 120, TxPerBlockJitter: 0.3, Users: 25000,
			ActiveFrac: 2.5, ExchangeFrac: 0, Exchanges: 0,
			ContractFrac: 0, CreationFrac: 0, InternalDepth: 0, Contracts: 0,
			HotReceiverFrac: 0, HotReceivers: 0,
			HotSenderFrac: 0.6, HotSenders: 4, HotSenderRotate: rotate}
	}
	return Profile{
		Name: "Shard Drift", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: false, DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []Era{
			era("wave1", jan1(2020), 0),
			era("wave2", jan1(2020)+90*86400, 4),
			era("wave3", jan1(2020)+180*86400, 8),
			era("wave4", jan1(2020)+270*86400, 12),
		},
	}
}

// ZilliqaProfile models Zilliqa's 2019 mainnet (~2.2M transactions over
// ~360K tx-blocks): a young sharded chain whose traffic is dominated by a
// handful of addresses, giving it the highest conflict rates of the seven
// (paper Figure 7) — the paper attributes this to workload characteristics,
// not to sharding itself.
func ZilliqaProfile() Profile {
	return Profile{
		Name: "Zilliqa", Model: Account, Consensus: "PoW+Sharding",
		SmartContracts: true, DataSource: "Custom client", LaunchYear: 2019,
		Eras: []Era{
			{Name: "2019H1", Weight: 1, StartTime: jan1(2019) + 31*86400, BlockInterval: 40,
				TxPerBlock: 5, TxPerBlockJitter: 1.2, Users: 600,
				ActiveFrac: 0.25, ExchangeFrac: 0.62, Exchanges: 1,
				ContractFrac: 0.05, CreationFrac: 0.01, InternalDepth: 1.1, Contracts: 15},
			{Name: "2019H2", Weight: 1, StartTime: jan1(2019) + 182*86400, BlockInterval: 40,
				TxPerBlock: 7, TxPerBlockJitter: 1.1, Users: 900,
				ActiveFrac: 0.25, ExchangeFrac: 0.60, Exchanges: 2,
				ContractFrac: 0.07, CreationFrac: 0.01, InternalDepth: 1.2, Contracts: 25},
		},
	}
}
