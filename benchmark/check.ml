(* The correctness gate over the recorded op windows. Only generations
   that every domain recorded completely are checked. Registers and the
   key-value service are checked per (generation, key) with
   [Linearize.check_partitioned] — sound because linearizability is
   compositional and each generation starts from a fresh arena. Chain
   instances are checked for agreement and validity. *)

open Scs_spec
open Scs_history
module R = Engine.Recorder

type result = { ops : int; violations : int }

let complete_below (records : R.t array) =
  Array.fold_left (fun a r -> min a r.R.stop_gen) max_int records

let iter_checked records f =
  let limit = complete_below records in
  Array.iteri
    (fun d (r : R.t) ->
      for i = 0 to r.R.n - 1 do
        if r.R.gen.(i) < limit then f d r i
      done)
    records

let linearizable ~spec ~payload ~resp ~keys records =
  let part = Hashtbl.create 4096 in
  let ops = ref [] in
  iter_checked records (fun d r i ->
      let id = (d * R.cap) + i and read = r.R.read.(i) = 1 in
      Hashtbl.replace part id ((r.R.gen.(i) * keys) + r.R.key.(i));
      let outcome =
        if r.R.res.(i) < 0 then Trace.Pending
        else
          Trace.Committed
            { resp = resp ~read r.R.resp.(i); resp_seq = r.R.res.(i); resp_ts = r.R.res.(i) }
      in
      let op : (_, _, unit) Trace.operation =
        {
          Trace.op_pid = d;
          op_req = Request.make id (payload ~read ~key:r.R.key.(i) ~arg:r.R.arg.(i));
          invoke_seq = r.R.inv.(i);
          invoke_ts = r.R.inv.(i);
          op_init = None;
          op_recoveries = 0;
          outcome;
        }
      in
      ops := op :: !ops);
  let key (o : (_, _, unit) Trace.operation) = Hashtbl.find part (Request.id o.Trace.op_req) in
  let ops = !ops in
  let violations =
    if Linearize.check_partitioned ~key ~spec:(fun _ -> spec) ops then 0
    else begin
      (* Name the failing partitions: one violation per (generation, key). *)
      let groups = Hashtbl.create 1024 in
      List.iter
        (fun o ->
          let k = key o in
          Hashtbl.replace groups k (o :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
        ops;
      Hashtbl.fold
        (fun _ g acc -> if Linearize.check_operations spec g then acc else acc + 1)
        groups 0
    end
  in
  { ops = List.length ops; violations }

let register records ~keys =
  linearizable ~spec:Objects.register ~keys records
    ~payload:(fun ~read ~key:_ ~arg -> if read then Objects.Reg_read else Objects.Reg_write arg)
    ~resp:(fun ~read v -> if read then Objects.Reg_value v else Objects.Reg_ok)

let kv records ~keys =
  let open Scs_shard.Kv in
  linearizable ~spec:flat_spec ~keys records
    ~payload:(fun ~read ~key ~arg -> if read then Get key else Put (key, arg))
    ~resp:(fun ~read v -> if read then Value v else Ack)

(* Per (generation, key, instance): every decision is the same value,
   and that value was proposed there. *)
let chain records =
  let insts = Hashtbl.create 4096 in
  let ops = ref 0 in
  iter_checked records (fun _ r i ->
      if r.R.res.(i) >= 0 then begin
        incr ops;
        let k = (r.R.gen.(i), r.R.key.(i), r.R.slot.(i)) in
        let decided, proposed = Option.value ~default:([], []) (Hashtbl.find_opt insts k) in
        Hashtbl.replace insts k (r.R.resp.(i) :: decided, r.R.arg.(i) :: proposed)
      end);
  let violations =
    Hashtbl.fold
      (fun _ (decided, proposed) acc ->
        match decided with
        | d :: rest when List.for_all (( = ) d) rest && List.mem d proposed -> acc
        | _ -> acc + 1)
      insts 0
  in
  { ops = !ops; violations }

let run (cfg : Workloads.cfg) records =
  match cfg.Workloads.kind with
  | Workloads.Uc_solo -> register records ~keys:cfg.Workloads.keys
  | Workloads.Kv _ -> kv records ~keys:cfg.Workloads.keys
  | Workloads.Chain_d2 -> chain records
