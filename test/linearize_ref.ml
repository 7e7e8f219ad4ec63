(* The seed word-sized-bitmask Wing & Gong checker, kept verbatim as a
   differential oracle: test_linearize_diff.ml asserts the scalable
   checker (Linearize) agrees with it on random well-formed traces. Not
   for production use — hard-capped at 62 operations. *)

open Scs_spec
open Scs_history

type ('i, 'r) comp = { c_req : 'i Request.t; c_resp : 'r; c_inv : int; c_res : int }
type 'i pend = { p_req : 'i Request.t; p_inv : int }

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
  (Array.of_list (List.rev !comp), Array.of_list (List.rev !pend))

let max_operations = 62

exception Capacity_exceeded of int

let check_operations (spec : _ Spec.t) ops =
  let comp, pend = split_ops ops in
  let nc = Array.length comp in
  let np = Array.length pend in
  let n = nc + np in
  if n > max_operations then raise (Capacity_exceeded n);
  let all_completed_mask = if nc = 0 then 0 else (1 lsl nc) - 1 in
  let inv i = if i < nc then comp.(i).c_inv else pend.(i - nc).p_inv in
  (* Memo table: mask -> list of object states already explored there. *)
  let memo : (int, 'q list) Hashtbl.t = Hashtbl.create 256 in
  let seen mask state =
    let states = Option.value ~default:[] (Hashtbl.find_opt memo mask) in
    if List.exists (fun s -> spec.Spec.equal_state s state) states then true
    else begin
      Hashtbl.replace memo mask (state :: states);
      false
    end
  in
  let rec search mask state =
    if mask land all_completed_mask = all_completed_mask then true
    else if seen mask state then false
    else begin
      (* An operation may be linearized next iff no unlinearized completed
         operation responded before it was invoked. *)
      let min_res = ref max_int in
      for i = 0 to nc - 1 do
        if mask land (1 lsl i) = 0 && comp.(i).c_res < !min_res then min_res := comp.(i).c_res
      done;
      let try_op i =
        mask land (1 lsl i) = 0
        && inv i < !min_res
        &&
        if i < nc then begin
          let state', resp = spec.Spec.apply state (Request.payload comp.(i).c_req) in
          spec.Spec.equal_resp resp comp.(i).c_resp && search (mask lor (1 lsl i)) state'
        end
        else begin
          let state', _ = spec.Spec.apply state (Request.payload pend.(i - nc).p_req) in
          search (mask lor (1 lsl i)) state'
        end
      in
      let rec any i = i < n && (try_op i || any (i + 1)) in
      any 0
    end
  in
  search 0 spec.Spec.init

let check_events spec evs = check_operations spec (Trace.operations evs)
