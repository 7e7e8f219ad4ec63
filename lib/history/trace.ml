open Scs_util
open Scs_spec

type ('i, 'r, 'v) event =
  | Invoke of { seq : int; ts : int; pid : int; req : 'i Request.t }
  | Init of { seq : int; ts : int; pid : int; req : 'i Request.t; switch : 'v }
  | Commit of { seq : int; ts : int; pid : int; req : 'i Request.t; resp : 'r }
  | Abort of { seq : int; ts : int; pid : int; req : 'i Request.t; switch : 'v }
  | Recover of { seq : int; ts : int; pid : int; req : 'i Request.t }

type ('i, 'r, 'v) t = { clock : unit -> int; events : ('i, 'r, 'v) event Vec.t }

let create ?clock () =
  let ev = Vec.create () in
  let clock = match clock with Some c -> c | None -> fun () -> Vec.length ev in
  { clock; events = ev }

let next t = (Vec.length t.events, t.clock ())

let invoke t ~pid req =
  let seq, ts = next t in
  Vec.push t.events (Invoke { seq; ts; pid; req })

let init t ~pid req switch =
  let seq, ts = next t in
  Vec.push t.events (Init { seq; ts; pid; req; switch })

let commit t ~pid req resp =
  let seq, ts = next t in
  Vec.push t.events (Commit { seq; ts; pid; req; resp })

let abort t ~pid req switch =
  let seq, ts = next t in
  Vec.push t.events (Abort { seq; ts; pid; req; switch })

let recover t ~pid req =
  let seq, ts = next t in
  Vec.push t.events (Recover { seq; ts; pid; req })

let events t = Vec.to_array t.events
let length t = Vec.length t.events

type ('i, 'r, 'v) operation = {
  op_pid : int;
  op_req : 'i Request.t;
  invoke_seq : int;
  invoke_ts : int;
  op_init : 'v option;
  op_recoveries : int;
  outcome : ('i, 'r, 'v) outcome;
}

and ('i, 'r, 'v) outcome =
  | Committed of { resp : 'r; resp_seq : int; resp_ts : int }
  | Aborted of { switch : 'v; resp_seq : int; resp_ts : int }
  | Pending

let operations evs =
  let tbl = Hashtbl.create 32 in
  let order = Vec.create () in
  let add_invocation ~seq ~ts ~pid ~req ~init_v =
    let id = Request.id req in
    if Hashtbl.mem tbl id then
      invalid_arg (Printf.sprintf "Trace.operations: request %d invoked twice" id);
    Hashtbl.replace tbl id
      {
        op_pid = pid;
        op_req = req;
        invoke_seq = seq;
        invoke_ts = ts;
        op_init = init_v;
        op_recoveries = 0;
        outcome = Pending;
      };
    Vec.push order id
  in
  (* a Recover is a re-invocation of a pending request, not a fresh
     operation: the operation keeps its original invocation point (it
     was in flight across the crash) and just counts the recovery *)
  let recover_invocation ~req =
    let id = Request.id req in
    match Hashtbl.find_opt tbl id with
    | None ->
        invalid_arg
          (Printf.sprintf "Trace.operations: recovery for uninvoked request %d" id)
    | Some op -> (
        match op.outcome with
        | Pending ->
            Hashtbl.replace tbl id { op with op_recoveries = op.op_recoveries + 1 }
        | _ ->
            invalid_arg
              (Printf.sprintf "Trace.operations: recovery after response of request %d" id))
  in
  let respond ~req outcome =
    let id = Request.id req in
    match Hashtbl.find_opt tbl id with
    | None ->
        invalid_arg (Printf.sprintf "Trace.operations: response for uninvoked request %d" id)
    | Some op -> (
        match op.outcome with
        | Pending -> Hashtbl.replace tbl id { op with outcome }
        | _ ->
            invalid_arg (Printf.sprintf "Trace.operations: request %d responded twice" id))
  in
  Array.iter
    (fun ev ->
      match ev with
      | Invoke { seq; ts; pid; req } -> add_invocation ~seq ~ts ~pid ~req ~init_v:None
      | Init { seq; ts; pid; req; switch } ->
          add_invocation ~seq ~ts ~pid ~req ~init_v:(Some switch)
      | Commit { seq; ts; req; resp; _ } ->
          respond ~req (Committed { resp; resp_seq = seq; resp_ts = ts })
      | Abort { seq; ts; req; switch; _ } ->
          respond ~req (Aborted { switch; resp_seq = seq; resp_ts = ts })
      | Recover { req; _ } -> recover_invocation ~req)
    evs;
  List.map (fun id -> Hashtbl.find tbl id) (Vec.to_list order)

let committed ops =
  List.filter (fun o -> match o.outcome with Committed _ -> true | _ -> false) ops

let aborted ops = List.filter (fun o -> match o.outcome with Aborted _ -> true | _ -> false) ops
let pending ops = List.filter (fun o -> match o.outcome with Pending -> true | _ -> false) ops
