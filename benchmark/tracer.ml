(* Outside-in tracing for the traced run.

   Every probe sits at a call into a public function of the library:
   spans around the calls the benchmark makes (op, barrier, UC, service,
   chain, migration), spans around the consensus stages through wrappers
   of the stage factories, counts of spec applications through a wrapped
   [Spec.t], and counts of base-object operations through
   {!Traced_prims}. All state is per domain (DLS), so probes never share
   a cache line; the engine merges the states after join. *)

open Scs_composable
module CI = Scs_consensus.Consensus_intf

let now () = Int64.to_int (Monotonic_clock.now ())

(* Timed layers. A layer's self time is its span minus the child spans
   on the same domain; the op span's self time is the harness itself
   (op generation, recording), so the self times of all layers sum to
   the op spans exactly. *)
let l_op = 0
let l_arena = 1
let l_uc = 2
let l_svc = 3
let l_chain = 4
let l_migration = 5
let l_split = 6 (* stage s (0 split, 1 bakery, 2 cas) is l_split + s *)
let n_layers = 9

let layer_names =
  [| "harness"; "arena"; "uc"; "svc"; "chain"; "migration"; "split"; "bakery"; "cas" |]

(* Object tags for base-object counts, chosen at creation. *)
let t_other = 0
let t_router = 1
let t_queue = 2
let t_lock = 3
let t_cell = 4
let t_snapshot = 5
let t_uc_aborted = 6
let t_uc_count = 7
let t_split = 8 (* stage s is t_split + s *)
let t_chain = 11
let t_phase = 12
let n_tags = 13

(* Operation kinds; a failed RMW counts as [k_rmw] and [k_rmw_fail]. *)
let k_read = 0
let k_write = 1
let k_rmw = 2
let k_rmw_fail = 3
let n_kinds = 4

(* Event counters. Stage [s] (0 split, 1 bakery, 2 cas) owns
   [e_calls + s], [e_runs + s] and [e_aborts + s]. *)
let e_calls = 0
let e_runs = 3
let e_aborts = 6
let e_probes = 9
let e_inits = 10
let e_transfer_ns = 11
let e_applies = 12
let e_handoffs = 13
let e_rebuilds = 14
let e_rebuild_ns = 15
let e_rebuild_words = 16
let e_migrations = 17
let e_migration_ns = 18
let e_give_ups = 19
let e_foreign_cell = 20
let e_hist_len = 21
let n_ev = 22
let max_depth = 16

(* Spans kept per domain for the out/ file: layer, depth, start, end. *)
let log_spans = 16384

type st = {
  mutable ctx : int;  (** creation tag forced by the enclosing factory; -1 = by name *)
  counts : int array;
  ev : int array;
  self_ns : int array;
  span_ns : int array;
  nspans : int array;
  stk_layer : int array;
  stk_t0 : int array;
  stk_child : int array;
  mutable depth : int;
  log : int array;
  mutable nlog : int;
}

let fresh () =
  {
    ctx = -1;
    counts = Array.make (n_tags * n_kinds) 0;
    ev = Array.make n_ev 0;
    self_ns = Array.make n_layers 0;
    span_ns = Array.make n_layers 0;
    nspans = Array.make n_layers 0;
    stk_layer = Array.make max_depth 0;
    stk_t0 = Array.make max_depth 0;
    stk_child = Array.make max_depth 0;
    depth = 0;
    log = Array.make (4 * log_spans) 0;
    nlog = 0;
  }

let key = Domain.DLS.new_key fresh
let get () = Domain.DLS.get key

let reset st =
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) 0)
    [ st.counts; st.ev; st.self_ns; st.span_ns; st.nspans ];
  st.depth <- 0;
  st.nlog <- 0

let enter_at st layer t =
  let d = st.depth in
  st.stk_layer.(d) <- layer;
  st.stk_t0.(d) <- t;
  st.stk_child.(d) <- 0;
  st.depth <- d + 1

let leave_at st t =
  let d = st.depth - 1 in
  st.depth <- d;
  let layer = st.stk_layer.(d) and t0 = st.stk_t0.(d) in
  let dur = t - t0 in
  st.self_ns.(layer) <- st.self_ns.(layer) + dur - st.stk_child.(d);
  st.span_ns.(layer) <- st.span_ns.(layer) + dur;
  st.nspans.(layer) <- st.nspans.(layer) + 1;
  if d > 0 then st.stk_child.(d - 1) <- st.stk_child.(d - 1) + dur;
  if st.nlog < log_spans then begin
    let i = 4 * st.nlog in
    st.log.(i) <- layer;
    st.log.(i + 1) <- d;
    st.log.(i + 2) <- t0;
    st.log.(i + 3) <- t;
    st.nlog <- st.nlog + 1
  end

(* Drop spans left open by an exception, down to [depth]. *)
let unwind st depth = if st.depth > depth then st.depth <- depth

let span layer f =
  let st = get () in
  let d = st.depth in
  enter_at st layer (now ());
  match f () with
  | v ->
      leave_at st (now ());
      v
  | exception e ->
      unwind st d;
      raise e

let bump st e n = st.ev.(e) <- st.ev.(e) + n
let count st tag kind = st.counts.((tag * n_kinds) + kind) <- st.counts.((tag * n_kinds) + kind) + 1

let with_ctx tag f =
  let st = get () in
  let saved = st.ctx in
  st.ctx <- tag;
  Fun.protect ~finally:(fun () -> st.ctx <- saved) f

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec from i = i + m <= n && (at i 0 || from (i + 1)) in
  from 0

(* Objects created outside a stage factory are told apart by the names
   the library gives them. *)
let tag_of_name name =
  if contains name ".cell[" then t_cell
  else if contains name ".route[" then t_router
  else if contains name ".q[" then t_queue
  else if contains name ".lock[" then t_lock
  else if contains name ".Reqs.snap[" then t_snapshot
  else if contains name ".Aborted" then t_uc_aborted
  else if contains name ".C[" then t_uc_count
  else if contains name ".moved[" then t_chain
  else if contains name ".phase" then t_phase
  else t_other

(* A stage wrapper: one span per [run]/[propose_raw] call. Inside a
   universal construction ([uc]), a [⊥] proposal is a recovery probe of
   the aborting stage and a [run] with an inherited value replays a
   slot of the transferred history; both count as history transfer. *)
let timed_stage ~stage ~uc (c : 'v CI.t) : 'v CI.t =
  let layer = l_split + stage in
  let finish st t0 ~transfer =
    let t1 = now () in
    leave_at st t1;
    bump st (e_calls + stage) 1;
    if transfer then bump st e_transfer_ns (t1 - t0)
  in
  let run ~pid ~old v =
    let st = get () in
    let t0 = now () in
    enter_at st layer t0;
    let r = c.CI.run ~pid ~old v in
    let init = uc && Option.is_some old in
    finish st t0 ~transfer:init;
    bump st (e_runs + stage) 1;
    (match r with Outcome.Abort _ -> bump st (e_aborts + stage) 1 | Outcome.Commit _ -> ());
    if init then bump st e_inits 1;
    r
  in
  let propose_raw ~pid v =
    let st = get () in
    let t0 = now () in
    enter_at st layer t0;
    let r = c.CI.propose_raw ~pid v in
    let probe = uc && Option.is_none v in
    finish st t0 ~transfer:probe;
    if probe then bump st e_probes 1;
    r
  in
  { c with CI.run; propose_raw }

let counting_spec (spec : ('q, 'i, 'r) Scs_spec.Spec.t) =
  {
    spec with
    Scs_spec.Spec.apply =
      (fun q i ->
        bump (get ()) e_applies 1;
        spec.Scs_spec.Spec.apply q i);
  }

(* Sum per-domain states into one. *)
let merge states =
  let acc = fresh () in
  List.iter
    (fun st ->
      let add a b = Array.iteri (fun i x -> a.(i) <- a.(i) + x) b in
      add acc.counts st.counts;
      add acc.ev st.ev;
      add acc.self_ns st.self_ns;
      add acc.span_ns st.span_ns;
      add acc.nspans st.nspans)
    states;
  acc

let copy st =
  {
    st with
    counts = Array.copy st.counts;
    ev = Array.copy st.ev;
    self_ns = Array.copy st.self_ns;
    span_ns = Array.copy st.span_ns;
    nspans = Array.copy st.nspans;
    log = Array.sub st.log 0 (4 * st.nlog);
  }

let total_kind st kind =
  let s = ref 0 in
  for tag = 0 to n_tags - 1 do
    s := !s + st.counts.((tag * n_kinds) + kind)
  done;
  !s

let get_count st tag kind = st.counts.((tag * n_kinds) + kind)
