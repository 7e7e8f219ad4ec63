open Scs_util
open Scs_spec

exception Search_budget_exceeded of int

type ('i, 'r) comp = { c_req : 'i Request.t; c_resp : 'r; c_inv : int; c_res : int }
type 'i pend = { p_req : 'i Request.t; p_inv : int }

(* Completed operations sorted by response time (minimal-response-first
   candidate order, Lowe's just-in-time linearization), pending ones by
   invocation time (so the candidate scan can stop at the first
   not-yet-invocable pending op). Sorting is stable w.r.t. verdicts: the
   search is exhaustive, only its branching order changes. *)
let split_ops ops =
  let comp = ref [] and pend = ref [] in
  List.iter
    (fun (o : _ Trace.operation) ->
      match o.Trace.outcome with
      | Trace.Committed { resp; resp_seq; _ } ->
          comp :=
            { c_req = o.Trace.op_req; c_resp = resp; c_inv = o.Trace.invoke_seq; c_res = resp_seq }
            :: !comp
      | Trace.Aborted _ | Trace.Pending ->
          pend := { p_req = o.Trace.op_req; p_inv = o.Trace.invoke_seq } :: !pend)
    ops;
  let comp = Array.of_list !comp and pend = Array.of_list !pend in
  Array.sort (fun a b -> compare a.c_res b.c_res) comp;
  Array.sort (fun a b -> compare a.p_inv b.p_inv) pend;
  (comp, pend)

let check_operations ?budget (spec : _ Spec.t) ops =
  let comp, pend = split_ops ops in
  let nc = Array.length comp in
  let np = Array.length pend in
  let n = nc + np in
  if nc = 0 then true
    (* no completed operation constrains anything: pending/aborted ops may
       all be dropped *)
  else begin
    (* The linearized set, as a growable bitvector: completed op [i] is bit
       [i], pending op [j] is bit [nc + j]. Mutated along the DFS path and
       restored on backtrack; memo keys hold immutable copies. *)
    let mask = Bitset.create ~bits:n in
    (* Hashed state memo: (mask, object state) pairs already explored,
       bucketed by combined content hash, membership decided by exact
       [Bitset.equal] + [spec.equal_state] (a hash-only memo would be
       unsound under collisions). Sound because the spec is deterministic:
       (mask, state) fully determines the remaining search, provided
       [equal_state] never conflates observationally distinct states — see
       the .mli invariant. *)
    let memo = Hashtbl.create 1024 in
    let seen state =
      let h = (Bitset.hash mask * 0x9E3779B1) lxor spec.Spec.hash_state state in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt memo h) in
      if
        List.exists
          (fun (m, s) -> Bitset.equal m mask && spec.Spec.equal_state s state)
          bucket
      then true
      else begin
        Hashtbl.replace memo h ((Bitset.copy mask, state) :: bucket);
        false
      end
    in
    (* The search is exponential in the concurrency width of the history
       (not its length); [budget] caps the number of search nodes so a
       caller facing adversarial width can give up instead of hanging. *)
    let nodes = ref 0 in
    let spend () =
      match budget with
      | Some b ->
          incr nodes;
          if !nodes > b then raise (Search_budget_exceeded b)
      | None -> ()
    in
    (* [done_c] counts linearized completed ops; [first0] is a lower bound
       for the first unlinearized completed index (comp is res-sorted, so
       that op carries the minimal outstanding response time). *)
    let rec search state done_c first0 =
      spend ();
      if done_c = nc then true
      else if seen state then false
      else begin
        let first = ref first0 in
        while Bitset.test mask !first do
          incr first
        done;
        let first = !first in
        (* An operation may be linearized next iff no unlinearized
           completed operation responded before it was invoked. *)
        let min_res = comp.(first).c_res in
        let rec try_comp i =
          i < nc
          && ((not (Bitset.test mask i))
             && comp.(i).c_inv < min_res
             && begin
                  let state', resp =
                    spec.Spec.apply state (Request.payload comp.(i).c_req)
                  in
                  spec.Spec.equal_resp resp comp.(i).c_resp
                  && begin
                       Bitset.set mask i;
                       let r = search state' (done_c + 1) first in
                       Bitset.clear mask i;
                       r
                     end
                end
             || try_comp (i + 1))
        in
        let rec try_pend j =
          j < np
          && pend.(j).p_inv < min_res
          && (((not (Bitset.test mask (nc + j)))
              && begin
                   let state', _ =
                     spec.Spec.apply state (Request.payload pend.(j).p_req)
                   in
                   Bitset.set mask (nc + j);
                   let r = search state' done_c first in
                   Bitset.clear mask (nc + j);
                   r
                 end)
             || try_pend (j + 1))
        in
        try_comp first || try_pend 0
      end
    in
    search spec.Spec.init 0 0
  end

let check_events ?budget spec evs = check_operations ?budget spec (Trace.operations evs)

(* ---- sequential consistency ------------------------------------------- *)

(* SC membership drops linearizability's real-time constraint: a witness
   is any total order of the operations that respects each process's
   program order and the sequential spec. The search is therefore a
   DFS over merges of the per-process program-order sequences — at each
   node the candidates are each process's next unconsumed operation —
   with the same completed/pending treatment as [check_operations]
   (a committed op must reproduce its response; a pending/aborted op may
   take effect or be dropped, either way consuming its program-order
   slot). Memoizing on (consumed set, state) stays sound: the consumed
   set is prefix-closed per process, so it determines every process's
   position, and the spec is deterministic.

   Only meaningful on well-formed histories (each process's operations
   sequential, i.e. program order is total per pid); on ill-formed input
   the checker still terminates but overlapping same-pid operations are
   ordered by invocation time, which is an arbitrary strengthening. *)
let check_sc_operations ?budget (spec : _ Spec.t) ops =
  let n_all = List.length ops in
  (* per-process program-order sequences *)
  let by_pid = Hashtbl.create 8 in
  List.iter
    (fun (o : _ Trace.operation) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_pid o.Trace.op_pid) in
      Hashtbl.replace by_pid o.Trace.op_pid (o :: cur))
    ops;
  let procs =
    Hashtbl.fold (fun pid l acc -> (pid, l) :: acc) by_pid []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    |> List.map (fun (_, l) ->
           let a = Array.of_list l in
           Array.sort
             (fun (a : _ Trace.operation) b -> compare a.Trace.invoke_seq b.Trace.invoke_seq)
             a;
           a)
    |> Array.of_list
  in
  let np = Array.length procs in
  let base = Array.make (np + 1) 0 in
  for p = 0 to np - 1 do
    base.(p + 1) <- base.(p) + Array.length procs.(p)
  done;
  let nc =
    List.fold_left
      (fun acc (o : _ Trace.operation) ->
        match o.Trace.outcome with Trace.Committed _ -> acc + 1 | _ -> acc)
      0 ops
  in
  if nc = 0 then true
  else begin
    (* consumed set: bit [base.(p) + i] is process p's i-th operation *)
    let mask = Bitset.create ~bits:n_all in
    let pos = Array.make np 0 in
    let memo = Hashtbl.create 1024 in
    let seen state =
      let h = (Bitset.hash mask * 0x9E3779B1) lxor spec.Spec.hash_state state in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt memo h) in
      if
        List.exists (fun (m, s) -> Bitset.equal m mask && spec.Spec.equal_state s state) bucket
      then true
      else begin
        Hashtbl.replace memo h ((Bitset.copy mask, state) :: bucket);
        false
      end
    in
    let nodes = ref 0 in
    let spend () =
      match budget with
      | Some b ->
          incr nodes;
          if !nodes > b then raise (Search_budget_exceeded b)
      | None -> ()
    in
    let rec search state done_c =
      spend ();
      if done_c = nc then true
      else if seen state then false
      else begin
        let rec try_proc p =
          p < np
          && ((let i = pos.(p) in
               i < Array.length procs.(p)
               && begin
                    let (o : _ Trace.operation) = procs.(p).(i) in
                    let bit = base.(p) + i in
                    let payload = Request.payload o.Trace.op_req in
                    let advance done_c' state' =
                      pos.(p) <- i + 1;
                      Bitset.set mask bit;
                      let r = search state' done_c' in
                      Bitset.clear mask bit;
                      pos.(p) <- i;
                      r
                    in
                    match o.Trace.outcome with
                    | Trace.Committed { resp; _ } ->
                        let state', resp' = spec.Spec.apply state payload in
                        spec.Spec.equal_resp resp' resp && advance (done_c + 1) state'
                    | Trace.Aborted _ | Trace.Pending ->
                        (* may have taken effect, or may be dropped *)
                        (let state', _ = spec.Spec.apply state payload in
                         advance done_c state')
                        || advance done_c state
                  end)
              || try_proc (p + 1))
        in
        try_proc 0
      end
    in
    search spec.Spec.init 0
  end


(* ---- compositional front-end ------------------------------------------ *)

let partition ~key ops =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun op ->
      let k = key op in
      match Hashtbl.find_opt tbl k with
      | Some part -> part := op :: !part
      | None ->
          Hashtbl.add tbl k (ref [ op ]);
          order := k :: !order)
    ops;
  List.rev_map (fun k -> (k, List.rev !(Hashtbl.find tbl k))) !order

let check_partitioned ?budget ~key ~spec ops =
  let parts =
    List.map (fun (k, sub) -> (List.length sub, k, sub)) (partition ~key ops)
  in
  (* cheapest-first: small subhistories refute (or clear) fast, so a
     non-linearizable cheap partition short-circuits the expensive ones *)
  let parts = List.sort (fun (la, _, _) (lb, _, _) -> compare la lb) parts in
  List.for_all (fun (_, k, sub) -> check_operations ?budget (spec k) sub) parts
