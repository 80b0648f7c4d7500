//! The EVM-lite interpreter.

use blockpart_types::{AccountKind, Address, Gas, Timestamp, Wei};

use crate::evm::{GasSchedule, Op};
use crate::program::ContractTemplate;
use crate::state::World;
use crate::transaction::{CallKind, CallRecord, Receipt, Transaction, TxPayload, TxStatus};

/// Maximum operand-stack depth.
pub const STACK_LIMIT: usize = 64;

/// Maximum nested call depth (transaction → contract → contract → …).
pub const CALL_DEPTH_LIMIT: usize = 4;

/// Errors raised while interpreting a program.
///
/// A contained error fails the *current frame* (a nested call returns 0 to
/// its caller, like the real EVM); only gas exhaustion propagates, because
/// gas is shared across frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmError {
    /// An instruction needed more stack items than were present.
    StackUnderflow,
    /// The operand stack exceeded [`STACK_LIMIT`].
    StackOverflow,
    /// The shared gas budget ran out.
    OutOfGas,
    /// A jump targeted an instruction index outside the program.
    BadJump,
    /// The program executed `REVERT`.
    Reverted,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            VmError::StackUnderflow => "stack underflow",
            VmError::StackOverflow => "stack overflow",
            VmError::OutOfGas => "out of gas",
            VmError::BadJump => "jump target out of bounds",
            VmError::Reverted => "execution reverted",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for VmError {}

/// Per-transaction execution environment.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::evm::{ExecContext, GasSchedule};
/// use blockpart_types::{Gas, Timestamp};
///
/// let ctx = ExecContext::new(Timestamp::from_secs(100), 7, Gas::new(500_000));
/// assert_eq!(ctx.gas_limit.get(), 500_000);
/// assert_eq!(ctx.schedule, GasSchedule::eip150());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExecContext {
    /// The enclosing block's timestamp.
    pub time: Timestamp,
    /// Seed for the deterministic `RAND` opcode.
    pub entropy: u64,
    /// Gas budget for the whole transaction.
    pub gas_limit: Gas,
    /// Per-opcode prices in force (fork-dependent).
    pub schedule: GasSchedule,
}

impl ExecContext {
    /// Creates a context with the default (post-EIP-150) gas schedule.
    pub fn new(time: Timestamp, entropy: u64, gas_limit: Gas) -> Self {
        ExecContext {
            time,
            entropy,
            gas_limit,
            schedule: GasSchedule::default(),
        }
    }

    /// Overrides the gas schedule (for pre-fork eras).
    pub fn with_schedule(mut self, schedule: GasSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// The EVM-lite virtual machine. Stateless: all mutation happens on the
/// [`World`] passed to [`Vm::execute`] or [`Vm::execute_with`].
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::evm::{ExecContext, Vm};
/// use blockpart_ethereum::{ContractTemplate, Transaction, TxPayload, World};
/// use blockpart_types::{Gas, Timestamp, Wei};
///
/// let mut world = World::new();
/// let user = world.new_user(Wei::new(1_000_000));
/// let dest = world.new_user(Wei::ZERO);
/// let wallet = world.create_contract(ContractTemplate::Wallet, user, dest.index());
/// let tx = Transaction {
///     from: user,
///     to: wallet,
///     value: Wei::new(50),
///     gas_limit: Gas::new(100_000),
///     payload: TxPayload::Call { arg: dest.index() },
/// };
/// let ctx = ExecContext::new(Timestamp::from_secs(1), 3, tx.gas_limit);
/// let receipt = Vm::execute(&mut world, &tx, &ctx);
/// assert!(receipt.is_success());
/// // two edges: user -> wallet (transaction), wallet -> dest (transfer)
/// assert_eq!(receipt.calls.len(), 2);
/// assert_eq!(world.balance(dest), Wei::new(50));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Vm;

/// Reusable memory of the interpreter: one operand stack per call depth,
/// and the call and creation lists a receipt carries out.
///
/// [`Vm::execute`] starts from empty buffers on every call. A caller that
/// executes many transactions keeps one `VmBuffers` and passes it to
/// [`Vm::execute_with`]: the stacks are reused as they are, and a
/// receipt's lists are reused once the caller hands the receipt back
/// through [`recycle`](Self::recycle). The buffers carry no values from
/// one execution to the next (each is cleared before use), so reusing
/// them changes no receipt and no state.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::evm::{ExecContext, Vm, VmBuffers};
/// use blockpart_ethereum::{Transaction, TxPayload, World};
/// use blockpart_types::{Gas, Timestamp, Wei};
///
/// let mut world = World::new();
/// let alice = world.new_user(Wei::new(100));
/// let bob = world.new_user(Wei::ZERO);
/// let tx = Transaction {
///     from: alice,
///     to: bob,
///     value: Wei::new(1),
///     gas_limit: Gas::new(30_000),
///     payload: TxPayload::Transfer,
/// };
/// let ctx = ExecContext::new(Timestamp::from_secs(1), 0, tx.gas_limit);
/// let mut buffers = VmBuffers::new();
/// for _ in 0..3 {
///     let receipt = Vm::execute_with(&mut world, &tx, &ctx, &mut buffers);
///     assert_eq!(receipt.calls.len(), 1);
///     buffers.recycle(receipt); // the next execution reuses its lists
/// }
/// assert_eq!(world.balance(bob), Wei::new(3));
/// ```
#[derive(Debug, Default)]
pub struct VmBuffers {
    /// The operand stack of the frame at each call depth.
    stacks: [Vec<u64>; CALL_DEPTH_LIMIT],
    calls: Vec<CallRecord>,
    created: Vec<Address>,
}

impl VmBuffers {
    /// Empty buffers; they grow to the largest execution they serve.
    pub fn new() -> Self {
        VmBuffers::default()
    }

    /// Takes back a receipt's call and creation lists, so the next
    /// execution fills them instead of allocating its own.
    pub fn recycle(&mut self, receipt: Receipt) {
        self.calls = receipt.calls;
        self.created = receipt.created;
    }
}

/// Mutable interpreter state shared across call frames.
struct ExecState<'b> {
    gas_used: u64,
    gas_limit: u64,
    time: Timestamp,
    rand_state: u64,
    schedule: GasSchedule,
    calls: Vec<CallRecord>,
    created: Vec<Address>,
    stacks: &'b mut [Vec<u64>; CALL_DEPTH_LIMIT],
}

impl ExecState<'_> {
    fn charge(&mut self, gas: Gas) -> Result<(), VmError> {
        self.gas_used += gas.get();
        if self.gas_used > self.gas_limit {
            self.gas_used = self.gas_limit;
            Err(VmError::OutOfGas)
        } else {
            Ok(())
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic per-transaction entropy stream.
        let mut x = self.rand_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rand_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl Vm {
    /// Executes `tx` against `world`, returning the receipt.
    ///
    /// The first call record is always the top-level transaction edge.
    /// Failed transactions keep their side effects up to the failure point
    /// (a simplification — the paper's graph counts interactions, not
    /// rollbacks) and consume gas.
    pub fn execute(world: &mut World, tx: &Transaction, ctx: &ExecContext) -> Receipt {
        Vm::execute_with(world, tx, ctx, &mut VmBuffers::new())
    }

    /// Like [`execute`](Self::execute), running in `buffers` instead of
    /// fresh memory; see [`VmBuffers`]. The receipt's lists are the
    /// buffers' own, so hand the receipt back through
    /// [`VmBuffers::recycle`] once it is read to make the next execution
    /// allocation-free.
    pub fn execute_with(
        world: &mut World,
        tx: &Transaction,
        ctx: &ExecContext,
        buffers: &mut VmBuffers,
    ) -> Receipt {
        let mut calls = std::mem::take(&mut buffers.calls);
        calls.clear();
        let mut created = std::mem::take(&mut buffers.created);
        created.clear();
        let mut state = ExecState {
            gas_used: 0,
            gas_limit: ctx.gas_limit.get(),
            time: ctx.time,
            rand_state: ctx.entropy | 1,
            schedule: ctx.schedule,
            calls,
            created,
            stacks: &mut buffers.stacks,
        };
        world.bump_nonce(tx.from);
        if state.charge(Gas::new(ctx.schedule.tx_base)).is_err() {
            return Receipt {
                status: TxStatus::Failed,
                gas_used: Gas::new(state.gas_used),
                calls: state.calls,
                created: state.created,
            };
        }

        let status = match tx.payload {
            TxPayload::Transfer => {
                state.calls.push(CallRecord {
                    from: tx.from,
                    to: tx.to,
                    from_kind: AccountKind::ExternallyOwned,
                    to_kind: world.kind(tx.to),
                    value: tx.value,
                    kind: CallKind::Transaction,
                });
                world.transfer(tx.from, tx.to, tx.value);
                TxStatus::Success
            }
            TxPayload::Call { arg } => {
                state.calls.push(CallRecord {
                    from: tx.from,
                    to: tx.to,
                    from_kind: AccountKind::ExternallyOwned,
                    to_kind: world.kind(tx.to),
                    value: tx.value,
                    kind: CallKind::Transaction,
                });
                world.transfer(tx.from, tx.to, tx.value);
                if let Some(program) = world.contract(tx.to).map(|c| c.template.program()) {
                    match run(world, program, tx.to, tx.from, tx.value, arg, 0, &mut state) {
                        Ok(_) => TxStatus::Success,
                        Err(_) => TxStatus::Failed,
                    }
                } else {
                    TxStatus::Success
                }
            }
            TxPayload::Create { template, arg } => {
                let template = ContractTemplate::from_id(template % 6)
                    .expect("template id taken modulo table size");
                let contract = world.create_contract(template, tx.from, arg);
                state.calls.push(CallRecord {
                    from: tx.from,
                    to: contract,
                    from_kind: AccountKind::ExternallyOwned,
                    to_kind: AccountKind::Contract,
                    value: tx.value,
                    kind: CallKind::Create,
                });
                state.created.push(contract);
                world.transfer(tx.from, contract, tx.value);
                let _ = state.charge(state.schedule.cost(&Op::Create));
                TxStatus::Success
            }
        };

        Receipt {
            status,
            gas_used: Gas::new(state.gas_used),
            calls: state.calls,
            created: state.created,
        }
    }
}

/// Interprets `ops` in the frame of contract `self_addr`, on the operand
/// stack the buffers keep for `depth`. The stack is taken out for the
/// frame and put back here, after [`run_frame`] returns, so every return
/// path of the frame loop hands it back.
#[allow(clippy::too_many_arguments)]
fn run(
    world: &mut World,
    ops: &[Op],
    self_addr: Address,
    caller: Address,
    value: Wei,
    arg: u64,
    depth: usize,
    state: &mut ExecState<'_>,
) -> Result<u64, VmError> {
    let mut stack = std::mem::take(&mut state.stacks[depth]);
    stack.clear();
    stack.push(arg);
    let result = run_frame(
        world, ops, self_addr, caller, value, depth, &mut stack, state,
    );
    state.stacks[depth] = stack;
    result
}

/// The frame loop of [`run`], starting from `stack` = `[arg]`.
#[allow(clippy::too_many_arguments)]
fn run_frame(
    world: &mut World,
    ops: &[Op],
    self_addr: Address,
    caller: Address,
    value: Wei,
    depth: usize,
    stack: &mut Vec<u64>,
    state: &mut ExecState<'_>,
) -> Result<u64, VmError> {
    let mut pc = 0usize;

    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow)?
        };
    }
    macro_rules! push {
        ($v:expr) => {{
            if stack.len() >= STACK_LIMIT {
                return Err(VmError::StackOverflow);
            }
            stack.push($v);
        }};
    }

    while pc < ops.len() {
        let op = ops[pc];
        state.charge(state.schedule.cost(&op))?;
        pc += 1;
        match op {
            Op::Stop => return Ok(stack.pop().unwrap_or(0)),
            Op::Revert => return Err(VmError::Reverted),
            Op::Push(x) => push!(x),
            Op::Pop => {
                pop!();
            }
            Op::Add => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_add(b));
            }
            Op::Sub => {
                let b = pop!();
                let a = pop!();
                push!(a.saturating_sub(b));
            }
            Op::Mul => {
                let b = pop!();
                let a = pop!();
                push!(a.wrapping_mul(b));
            }
            Op::Div => {
                let b = pop!();
                let a = pop!();
                push!(a.checked_div(b).unwrap_or(0));
            }
            Op::Mod => {
                let b = pop!();
                let a = pop!();
                push!(if b == 0 { 0 } else { a % b });
            }
            Op::Dup(n) => {
                let idx = stack
                    .len()
                    .checked_sub(1 + n as usize)
                    .ok_or(VmError::StackUnderflow)?;
                let v = stack[idx];
                push!(v);
            }
            Op::Swap(n) => {
                let top = stack.len().checked_sub(1).ok_or(VmError::StackUnderflow)?;
                let other = stack
                    .len()
                    .checked_sub(1 + n as usize)
                    .ok_or(VmError::StackUnderflow)?;
                stack.swap(top, other);
            }
            Op::Caller => push!(caller.index()),
            Op::CallValue => push!(value.get()),
            Op::SelfAddr => push!(self_addr.index()),
            Op::BlockTime => push!(state.time.as_secs()),
            Op::Rand => {
                let r = state.next_rand();
                push!(r);
            }
            Op::Balance => {
                let a = pop!();
                push!(world.balance(Address::from_index(a)).get());
            }
            Op::SLoad => {
                let key = pop!();
                push!(world.storage_load(self_addr, key));
            }
            Op::SStore => {
                let val = pop!();
                let key = pop!();
                world.storage_store(self_addr, key, val);
            }
            Op::Transfer => {
                let val = pop!();
                let to_idx = pop!();
                let to = Address::from_index(to_idx);
                state.calls.push(CallRecord {
                    from: self_addr,
                    to,
                    from_kind: AccountKind::Contract,
                    to_kind: world.kind(to),
                    value: Wei::new(val),
                    kind: CallKind::Transfer,
                });
                world.transfer(self_addr, to, Wei::new(val));
            }
            Op::Call => {
                let call_arg = pop!();
                let call_value = pop!();
                let to_idx = pop!();
                let to = Address::from_index(to_idx);
                state.calls.push(CallRecord {
                    from: self_addr,
                    to,
                    from_kind: AccountKind::Contract,
                    to_kind: world.kind(to),
                    value: Wei::new(call_value),
                    kind: CallKind::Call,
                });
                world.transfer(self_addr, to, Wei::new(call_value));
                let ret = match world.contract(to).map(|c| c.template.program()) {
                    Some(callee) if depth + 1 < CALL_DEPTH_LIMIT => {
                        match run(
                            world,
                            callee,
                            to,
                            self_addr,
                            Wei::new(call_value),
                            call_arg,
                            depth + 1,
                            state,
                        ) {
                            Ok(v) => v.max(1),
                            Err(VmError::OutOfGas) => return Err(VmError::OutOfGas),
                            Err(_) => 0, // contained failure, like EVM CALL
                        }
                    }
                    _ => 1, // plain transfer target or depth limit hit
                };
                push!(ret);
            }
            Op::Create => {
                let endow = pop!();
                let template_id = pop!();
                let template = ContractTemplate::from_id(template_id % 6)
                    .expect("template id taken modulo table size");
                let ctor_arg = state.next_rand();
                let child = world.create_contract(template, self_addr, ctor_arg);
                state.calls.push(CallRecord {
                    from: self_addr,
                    to: child,
                    from_kind: AccountKind::Contract,
                    to_kind: AccountKind::Contract,
                    value: Wei::new(endow),
                    kind: CallKind::Create,
                });
                state.created.push(child);
                world.transfer(self_addr, child, Wei::new(endow));
                push!(child.index());
            }
            Op::Jump(target) => {
                if target as usize >= ops.len() {
                    return Err(VmError::BadJump);
                }
                pc = target as usize;
            }
            Op::JumpI(target) => {
                let cond = pop!();
                if cond != 0 {
                    if target as usize >= ops.len() {
                        return Err(VmError::BadJump);
                    }
                    pc = target as usize;
                }
            }
            Op::Log => {
                pop!();
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (World, Address) {
        let mut world = World::new();
        let user = world.new_user(Wei::new(10_000_000));
        (world, user)
    }

    fn ctx() -> ExecContext {
        ExecContext::new(Timestamp::from_secs(1_000), 0xfeed, Gas::new(1_000_000))
    }

    fn call_tx(from: Address, to: Address, value: u64, arg: u64) -> Transaction {
        Transaction {
            from,
            to,
            value: Wei::new(value),
            gas_limit: Gas::new(1_000_000),
            payload: TxPayload::Call { arg },
        }
    }

    #[test]
    fn plain_transfer_emits_single_edge() {
        let (mut world, user) = setup();
        let other = world.new_user(Wei::ZERO);
        let tx = Transaction {
            from: user,
            to: other,
            value: Wei::new(10),
            gas_limit: Gas::new(50_000),
            payload: TxPayload::Transfer,
        };
        let r = Vm::execute(&mut world, &tx, &ctx());
        assert!(r.is_success());
        assert_eq!(r.calls.len(), 1);
        assert_eq!(r.calls[0].kind, CallKind::Transaction);
        assert_eq!(r.gas_used, Gas::new(GasSchedule::default().tx_base));
        assert_eq!(world.balance(other), Wei::new(10));
    }

    #[test]
    fn token_call_touches_storage_only() {
        let (mut world, user) = setup();
        let recipient = world.new_user(Wei::ZERO);
        let token = world.create_contract(ContractTemplate::Token, user, user.index());
        let r = Vm::execute(
            &mut world,
            &call_tx(user, token, 0, recipient.index()),
            &ctx(),
        );
        assert!(r.is_success());
        assert_eq!(r.calls.len(), 1); // no internal calls
                                      // recipient's balance slot was incremented
        assert_eq!(world.storage_load(token, recipient.index()), 1);
        assert!(r.gas_used.get() > GasSchedule::default().tx_base);
    }

    #[test]
    fn crowdsale_fans_out() {
        let (mut world, user) = setup();
        let beneficiary = world.new_user(Wei::ZERO);
        let token = world.create_contract(ContractTemplate::Token, user, user.index());
        let sale = world.create_contract(ContractTemplate::Crowdsale, user, 0);
        // wire the sale: slot 0 = beneficiary, slot 1 = token
        world.storage_store(sale, 0, beneficiary.index());
        world.storage_store(sale, 1, token.index());

        let r = Vm::execute(&mut world, &call_tx(user, sale, 500, 0), &ctx());
        assert!(r.is_success(), "receipt: {r:?}");
        // edges: user->sale (tx), sale->beneficiary (transfer), sale->token (call)
        let kinds: Vec<CallKind> = r.calls.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![CallKind::Transaction, CallKind::Transfer, CallKind::Call]
        );
        assert_eq!(world.balance(beneficiary), Wei::new(500));
        // raised accumulator
        assert_eq!(world.storage_load(sale, 2), 500);
        // token minted to the contributor
        assert_eq!(world.storage_load(token, user.index()), 1);
    }

    #[test]
    fn factory_creates_children() {
        let (mut world, user) = setup();
        let factory = world.create_contract(
            ContractTemplate::Factory,
            user,
            ContractTemplate::Registry.id(),
        );
        let before = world.contract_count();
        let r = Vm::execute(&mut world, &call_tx(user, factory, 0, 0), &ctx());
        assert!(r.is_success());
        assert_eq!(world.contract_count(), before + 1);
        assert_eq!(r.created.len(), 1);
        let child = r.created[0];
        assert_eq!(
            world.contract(child).unwrap().template,
            ContractTemplate::Registry
        );
        assert_eq!(world.storage_load(factory, 1), 1); // child counter
        assert!(r
            .calls
            .iter()
            .any(|c| c.kind == CallKind::Create && c.to == child));
    }

    #[test]
    fn game_pays_out_eventually() {
        let (mut world, user) = setup();
        let game = world.create_contract(ContractTemplate::Game, user, user.index());
        let mut payouts = 0;
        for i in 0..64 {
            let c = ExecContext {
                entropy: i,
                ..ctx()
            };
            let r = Vm::execute(&mut world, &call_tx(user, game, 100, 0), &c);
            assert!(r.is_success());
            payouts += r
                .calls
                .iter()
                .filter(|c| c.kind == CallKind::Transfer)
                .count();
        }
        // ~1 in 4 rolls pays out
        assert!((4..30).contains(&payouts), "payouts: {payouts}");
        // the last winner slot holds the caller
        assert_eq!(world.storage_load(game, 0), user.index());
    }

    #[test]
    fn out_of_gas_fails_transaction() {
        let (mut world, user) = setup();
        let token = world.create_contract(ContractTemplate::Token, user, 0);
        let tx = Transaction {
            gas_limit: Gas::new(GasSchedule::default().tx_base + 10), // enough for base, not for SSTOREs
            ..call_tx(user, token, 0, 5)
        };
        let c = ExecContext {
            gas_limit: tx.gas_limit,
            ..ctx()
        };
        let r = Vm::execute(&mut world, &tx, &c);
        assert_eq!(r.status, TxStatus::Failed);
        assert_eq!(r.gas_used, tx.gas_limit); // all gas consumed
        assert_eq!(r.calls.len(), 1); // top-level edge still present
    }

    #[test]
    fn gas_below_base_cost_fails_immediately() {
        let (mut world, user) = setup();
        let other = world.new_user(Wei::ZERO);
        let tx = Transaction {
            from: user,
            to: other,
            value: Wei::new(1),
            gas_limit: Gas::new(100),
            payload: TxPayload::Transfer,
        };
        let c = ExecContext {
            gas_limit: tx.gas_limit,
            ..ctx()
        };
        let r = Vm::execute(&mut world, &tx, &c);
        assert_eq!(r.status, TxStatus::Failed);
        assert!(r.calls.is_empty());
    }

    #[test]
    fn create_transaction_deploys() {
        let (mut world, user) = setup();
        let tx = Transaction {
            from: user,
            to: Address::ZERO,
            value: Wei::new(5),
            gas_limit: Gas::new(100_000),
            payload: TxPayload::Create {
                template: ContractTemplate::Wallet.id(),
                arg: user.index(),
            },
        };
        let r = Vm::execute(&mut world, &tx, &ctx());
        assert!(r.is_success());
        assert_eq!(r.created.len(), 1);
        let wallet = r.created[0];
        assert!(world.is_contract(wallet));
        assert_eq!(world.balance(wallet), Wei::new(5));
        assert_eq!(r.calls[0].kind, CallKind::Create);
    }

    #[test]
    fn call_depth_is_limited() {
        // a crowdsale whose "token" is another crowdsale pointing back at
        // it: without a depth limit this would recurse forever.
        let (mut world, user) = setup();
        let a = world.create_contract(ContractTemplate::Crowdsale, user, 0);
        let b = world.create_contract(ContractTemplate::Crowdsale, user, 0);
        world.storage_store(a, 0, user.index());
        world.storage_store(a, 1, b.index());
        world.storage_store(b, 0, user.index());
        world.storage_store(b, 1, a.index());
        let r = Vm::execute(&mut world, &call_tx(user, a, 10, 0), &ctx());
        assert!(r.is_success());
        // depth limit bounds the number of call edges
        assert!(
            r.calls.len() <= 2 * CALL_DEPTH_LIMIT + 2,
            "{}",
            r.calls.len()
        );
    }

    #[test]
    fn rand_is_deterministic_per_entropy() {
        let (mut world, user) = setup();
        let game = world.create_contract(ContractTemplate::Game, user, 0);
        let mut w2 = world.clone();
        let r1 = Vm::execute(&mut world, &call_tx(user, game, 1, 0), &ctx());
        let r2 = Vm::execute(&mut w2, &call_tx(user, game, 1, 0), &ctx());
        assert_eq!(r1, r2);
    }

    #[test]
    fn nonce_increments() {
        let (mut world, user) = setup();
        let other = world.new_user(Wei::ZERO);
        let tx = Transaction {
            from: user,
            to: other,
            value: Wei::ZERO,
            gas_limit: Gas::new(30_000),
            payload: TxPayload::Transfer,
        };
        Vm::execute(&mut world, &tx, &ctx());
        Vm::execute(&mut world, &tx, &ctx());
        // nonce lives in account state; verify indirectly through balance
        // bookkeeping not changing and no panic; direct check:
        // (account state is private — nonce covered via state tests)
    }
}
