open Scs_util

type pid = int

exception Livelock of string
exception Process_failure of pid * exn

type pending = Pending : 'r Op.t * ('r, unit) Effect.Deep.continuation -> pending

type status =
  | Idle  (** no code installed *)
  | Ready of (unit -> unit)
  | Blocked of pending
  | Done
  | Crashed

type t = {
  n : int;
  max_steps : int;
  mutable clock : int;
  status : status array;
  mutable runnable_bits : int;
      (** bit [pid] set iff [status.(pid)] is [Ready _ | Blocked _]; the
          runnable set as a word-sized mask so the scheduler hot path never
          builds a list. Forces [n <= 62]. *)
  steps : int array;
  rmws : int array;
  raw_fences : int array;
  dirty_write : bool array;  (** wrote since last fence-inducing event *)
  mutable next_obj : int;
  mutable rmw_objs : int;
  volatile_wipes : (unit -> unit) Vec.t;
      (** one thunk per volatile object, rewinding it to its creation
          value; replayed by every {!crash} (the crash-recovery model's
          cache wipe: any crash loses all volatile contents) *)
  recov_code : (unit -> unit) option array;
      (** recovery entry points installed by {!set_recovery}; a crashed
          process with one can be re-admitted as a fresh fiber running
          this code *)
  recover_at : int array;
      (** global clock value at which a crashed process is due for
          re-admission; [-1] when no recovery is pending for the pid *)
  mutable pending_recov : int;
      (** number of pids with [recover_at >= 0]; guards the per-step
          admission scan so fail-stop runs pay one load per step *)
  recoveries : int array;  (** per-pid count of re-admissions this run *)
  mutable record_trace : bool;
  trace : Mem_event.t Vec.t;
  pause_obj : int;
  mutable cur_pid : int;
      (** pid whose turn {!step} is currently executing; [-1] between
          turns. Lets backend operation closures ({!custom_op}) learn the
          process on whose behalf they run without threading pids through
          {!Prims_intf.S}. *)
  obs : Scs_obs.Obs.t;
  obs_on : bool;  (** cached [Obs.enabled obs]: one load on the hot path *)
}

type _ Effect.t += Mem : 'r Op.t -> 'r Effect.t

let max_processes = 62

let create ?(max_steps = 1_000_000) ?(obs = Scs_obs.Obs.null) ~n () =
  if n > max_processes then
    invalid_arg "Sim.create: at most 62 processes (runnable set is a word-sized bitmask)";
  if Scs_obs.Obs.enabled obs && Scs_obs.Obs.n obs < n then
    invalid_arg "Sim.create: obs sink sized for fewer processes than n";
  {
    n;
    max_steps;
    clock = 0;
    status = Array.make n Idle;
    runnable_bits = 0;
    steps = Array.make n 0;
    rmws = Array.make n 0;
    raw_fences = Array.make n 0;
    dirty_write = Array.make n false;
    next_obj = 1;
    rmw_objs = 0;
    volatile_wipes = Vec.create ();
    recov_code = Array.make n None;
    recover_at = Array.make n (-1);
    pending_recov = 0;
    recoveries = Array.make n 0;
    record_trace = false;
    trace = Vec.create ();
    pause_obj = 0;
    cur_pid = -1;
    obs;
    obs_on = Scs_obs.Obs.enabled obs;
  }

let n t = t.n
let clock t = t.clock
let max_steps t = t.max_steps

(* ------------------------------------------------------------------ *)
(* Shared objects                                                      *)
(* ------------------------------------------------------------------ *)

let fresh_obj t =
  let id = t.next_obj in
  t.next_obj <- id + 1;
  id

type 'a reg = { mutable rv : 'a; r_id : int; r_name : string }

let reg t ?(volatile = false) ~name v =
  let r = { rv = v; r_id = fresh_obj t; r_name = name } in
  if volatile then Vec.push t.volatile_wipes (fun () -> r.rv <- v);
  r

let read r =
  Effect.perform
    (Mem { Op.kind = Op.Read; obj = r.r_id; obj_name = r.r_name; info = ""; run = (fun () -> r.rv) })

let write r v =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Write;
         obj = r.r_id;
         obj_name = r.r_name;
         info = "";
         run = (fun () -> r.rv <- v);
       })

type tas_obj = { mutable t_set : bool; t_id : int; t_name : string }

let tas_obj t ~name () =
  t.rmw_objs <- t.rmw_objs + 1;
  { t_set = false; t_id = fresh_obj t; t_name = name }

let test_and_set o =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Rmw;
         obj = o.t_id;
         obj_name = o.t_name;
         info = "tas";
         run =
           (fun () ->
             if o.t_set then false
             else begin
               o.t_set <- true;
               true
             end);
       })

let tas_read o =
  Effect.perform
    (Mem
       { Op.kind = Op.Read; obj = o.t_id; obj_name = o.t_name; info = ""; run = (fun () -> o.t_set) })

let tas_reset o =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Write;
         obj = o.t_id;
         obj_name = o.t_name;
         info = "reset";
         run = (fun () -> o.t_set <- false);
       })

type 'a cas_obj = { mutable c_v : 'a; c_id : int; c_name : string }

let cas_obj t ~name v =
  t.rmw_objs <- t.rmw_objs + 1;
  { c_v = v; c_id = fresh_obj t; c_name = name }

let cas_read o =
  Effect.perform
    (Mem { Op.kind = Op.Read; obj = o.c_id; obj_name = o.c_name; info = ""; run = (fun () -> o.c_v) })

let compare_and_swap o ~expect ~update =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Rmw;
         obj = o.c_id;
         obj_name = o.c_name;
         info = "cas";
         run =
           (fun () ->
             if o.c_v == expect then begin
               o.c_v <- update;
               true
             end
             else false);
       })

type fai_obj = { mutable f_v : int; f_id : int; f_name : string }

let fai_obj t ~name v =
  t.rmw_objs <- t.rmw_objs + 1;
  { f_v = v; f_id = fresh_obj t; f_name = name }

let fetch_and_inc o =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Rmw;
         obj = o.f_id;
         obj_name = o.f_name;
         info = "fai";
         run =
           (fun () ->
             let v = o.f_v in
             o.f_v <- v + 1;
             v);
       })

let fai_read o =
  Effect.perform
    (Mem { Op.kind = Op.Read; obj = o.f_id; obj_name = o.f_name; info = ""; run = (fun () -> o.f_v) })

type 'a swap_obj = { mutable s_v : 'a; s_id : int; s_name : string }

let swap_obj t ~name v =
  t.rmw_objs <- t.rmw_objs + 1;
  { s_v = v; s_id = fresh_obj t; s_name = name }

let swap o v =
  Effect.perform
    (Mem
       {
         Op.kind = Op.Rmw;
         obj = o.s_id;
         obj_name = o.s_name;
         info = "swap";
         run =
           (fun () ->
             let old = o.s_v in
             o.s_v <- v;
             old);
       })

let swap_read o =
  Effect.perform
    (Mem { Op.kind = Op.Read; obj = o.s_id; obj_name = o.s_name; info = ""; run = (fun () -> o.s_v) })

let pause t =
  Effect.perform
    (Mem { Op.kind = Op.Read; obj = t.pause_obj; obj_name = "pause"; info = ""; run = (fun () -> ()) })

(* ------------------------------------------------------------------ *)
(* Custom backend objects                                              *)
(* ------------------------------------------------------------------ *)

let custom_obj t ?(rmw = false) ?wipe () =
  if rmw then t.rmw_objs <- t.rmw_objs + 1;
  let id = fresh_obj t in
  (match wipe with None -> () | Some w -> Vec.push t.volatile_wipes w);
  id

let custom_op ~obj ~obj_name ~kind ~info run =
  Effect.perform (Mem { Op.kind; obj; obj_name; info; run })

let running_pid t =
  if t.cur_pid < 0 then invalid_arg "Sim.running_pid: no turn is executing";
  t.cur_pid

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* The runnable bitmask is maintained at every status write. During a
   turn the fiber's status briefly reads [Done] (the placeholder written
   by {!step}) while its bit is still set; no policy observes that
   window because policies only run between turns. *)

let handler t pid : (unit, unit) Effect.Deep.handler =
  {
    retc =
      (fun () ->
        t.status.(pid) <- Done;
        t.runnable_bits <- t.runnable_bits land lnot (1 lsl pid));
    exnc =
      (fun e ->
        t.status.(pid) <- Done;
        t.runnable_bits <- t.runnable_bits land lnot (1 lsl pid);
        raise (Process_failure (pid, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Mem op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                t.status.(pid) <- Blocked (Pending (op, k)))
        | _ -> None);
  }

let spawn t pid f =
  if pid < 0 || pid >= t.n then invalid_arg "Sim.spawn: pid out of range";
  match t.status.(pid) with
  | Idle ->
      t.status.(pid) <- Ready f;
      t.runnable_bits <- t.runnable_bits lor (1 lsl pid)
  | _ -> invalid_arg "Sim.spawn: process already spawned"

let is_runnable t pid = t.runnable_bits land (1 lsl pid) <> 0

type footprint = Local | Access of int * Op.kind

let footprint t pid =
  match t.status.(pid) with
  | Blocked (Pending (op, _)) -> Access (op.Op.obj, op.Op.kind)
  | Ready _ | Idle | Done | Crashed -> Local

let footprints_commute a b =
  match (a, b) with
  | Local, _ | _, Local -> true
  | Access (o1, k1), Access (o2, k2) -> o1 <> o2 || (k1 = Op.Read && k2 = Op.Read)

(* Footprints packed into an int — [-1] for [Local], else
   [obj * 4 + kind] — so {!Explore}'s conflict checks allocate nothing. *)

let kind_code : Op.kind -> int = function Op.Read -> 0 | Op.Write -> 1 | Op.Rmw -> 2

let footprint_code t pid =
  match t.status.(pid) with
  | Blocked (Pending (op, _)) -> (op.Op.obj * 4) + kind_code op.Op.kind
  | Ready _ | Idle | Done | Crashed -> -1

let codes_commute a b =
  a < 0 || b < 0 || a lsr 2 <> b lsr 2 || (a land 3 = 0 && b land 3 = 0)

let runnable t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if is_runnable t i then i :: acc else acc) in
  go (t.n - 1) []

let runnable_bits t = t.runnable_bits

let runnable_count t =
  let c = ref 0 and b = ref t.runnable_bits in
  while !b <> 0 do
    b := !b land (!b - 1);
    incr c
  done;
  !c

let nth_runnable t k =
  let b = ref t.runnable_bits and k = ref k and pid = ref 0 in
  while !b land 1 = 0 || !k > 0 do
    if !b land 1 = 1 then decr k;
    b := !b lsr 1;
    incr pid
  done;
  !pid

let finished t pid = match t.status.(pid) with Done | Crashed -> true | _ -> false
let is_crashed t pid = match t.status.(pid) with Crashed -> true | _ -> false
let all_done t = t.runnable_bits = 0

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

let set_recovery t pid f =
  if pid < 0 || pid >= t.n then invalid_arg "Sim.set_recovery: pid out of range";
  t.recov_code.(pid) <- Some f

let has_recovery t pid = t.recov_code.(pid) <> None
let pending_recoveries t = t.pending_recov

(* Re-admit a crashed process: its recovery code runs on a fresh fiber. *)
let admit_recovery t pid =
  match t.recov_code.(pid) with
  | None -> assert false
  | Some f ->
      t.recover_at.(pid) <- -1;
      t.pending_recov <- t.pending_recov - 1;
      t.recoveries.(pid) <- t.recoveries.(pid) + 1;
      t.status.(pid) <- Ready f;
      t.runnable_bits <- t.runnable_bits lor (1 lsl pid);
      if t.obs_on then Scs_obs.Obs.recover t.obs ~pid

let admit_due_recoveries t =
  for pid = 0 to t.n - 1 do
    if t.recover_at.(pid) >= 0 && t.recover_at.(pid) <= t.clock then admit_recovery t pid
  done

let admit_stalled_recovery t =
  if t.runnable_bits <> 0 || t.pending_recov = 0 then false
  else begin
    (* Nothing can advance the clock, so waiting out the remaining delay
       is meaningless: admit the earliest-due pending recovery (ties
       broken towards the smallest pid) without advancing the clock. *)
    let best = ref (-1) in
    for pid = t.n - 1 downto 0 do
      if t.recover_at.(pid) >= 0 && (!best < 0 || t.recover_at.(pid) <= t.recover_at.(!best)) then
        best := pid
    done;
    admit_recovery t !best;
    true
  end

let account t pid (kind : Op.kind) =
  t.clock <- t.clock + 1;
  t.steps.(pid) <- t.steps.(pid) + 1;
  if t.pending_recov > 0 then admit_due_recoveries t;
  match kind with
  | Op.Read ->
      if t.dirty_write.(pid) then begin
        t.raw_fences.(pid) <- t.raw_fences.(pid) + 1;
        t.dirty_write.(pid) <- false
      end
  | Op.Write -> t.dirty_write.(pid) <- true
  | Op.Rmw ->
      t.rmws.(pid) <- t.rmws.(pid) + 1;
      t.dirty_write.(pid) <- false

let obs_kind : Op.kind -> Scs_obs.Obs.kind = function
  | Op.Read -> Scs_obs.Obs.Read
  | Op.Write -> Scs_obs.Obs.Write
  | Op.Rmw -> Scs_obs.Obs.Rmw

let record t pid (op : _ Op.t) =
  if t.obs_on then
    Scs_obs.Obs.step t.obs ~pid ~kind:(obs_kind op.Op.kind) ~obj:op.Op.obj
      ~obj_name:op.Op.obj_name ~info:op.Op.info;
  if t.record_trace then
    Vec.push t.trace
      {
        Mem_event.ts = t.clock;
        pid;
        kind = op.Op.kind;
        obj = op.Op.obj;
        obj_name = op.Op.obj_name;
        info = op.Op.info;
      }

let step t pid =
  match t.status.(pid) with
  | Idle -> invalid_arg "Sim.step: process not spawned"
  | Done | Crashed -> invalid_arg "Sim.step: process not runnable"
  | Ready f ->
      t.status.(pid) <- Done;
      t.cur_pid <- pid;
      (* will be overwritten by the handler or retc *)
      Effect.Deep.match_with f () (handler t pid);
      t.cur_pid <- -1
  | Blocked (Pending (op, k)) ->
      t.status.(pid) <- Done;
      t.cur_pid <- pid;
      account t pid op.Op.kind;
      record t pid op;
      let result = op.Op.run () in
      Effect.Deep.continue k result;
      t.cur_pid <- -1

let crash ?recover_after t pid =
  match t.status.(pid) with
  | Idle | Done | Crashed -> ()
  | Ready _ | Blocked _ ->
      (* The pending continuation is abandoned: the process takes no more
         steps, exactly as a crash failure in the model. Every crash
         additionally wipes all volatile objects (the model's shared
         cache loses power with the process); with no volatile objects
         allocated this is free, so fail-stop workloads are unchanged. *)
      t.status.(pid) <- Crashed;
      t.runnable_bits <- t.runnable_bits land lnot (1 lsl pid);
      Vec.iter (fun w -> w ()) t.volatile_wipes;
      (match recover_after with
      | Some d when t.recov_code.(pid) <> None ->
          if t.recover_at.(pid) < 0 then t.pending_recov <- t.pending_recov + 1;
          t.recover_at.(pid) <- t.clock + max 0 d
      | _ -> ());
      if t.obs_on then Scs_obs.Obs.crash t.obs ~pid

let run ?capture ?(crashes = []) t policy =
  (* the crash hooks are built once per run, so the loop allocates
     nothing per turn *)
  let fire_crashes =
    match crashes with
    | [] -> ignore
    | cs ->
        let plan = Crash.plan ~n:t.n cs in
        let due (c : Crash.t) = t.steps.(c.pid) >= c.at && not (is_crashed t c.pid) in
        let fire (c : Crash.t) = crash ?recover_after:c.recover t c.pid in
        fun () -> Crash.fire plan ~due fire
  in
  let rec loop () =
    if t.clock > t.max_steps then
      raise (Livelock (Printf.sprintf "step budget %d exhausted at clock %d" t.max_steps t.clock));
    if t.runnable_bits = 0 then ignore (admit_stalled_recovery t);
    if t.runnable_bits <> 0 then begin
      fire_crashes ();
      let pid = policy t in
      if pid >= 0 then begin
        (match capture with Some buf -> Vec.push buf pid | None -> ());
        step t pid;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Rewinding                                                           *)
(* ------------------------------------------------------------------ *)

let clear t =
  Array.fill t.status 0 t.n Idle;
  t.runnable_bits <- 0;
  t.clock <- 0;
  t.cur_pid <- -1;
  Array.fill t.steps 0 t.n 0;
  Array.fill t.rmws 0 t.n 0;
  Array.fill t.raw_fences 0 t.n 0;
  Array.fill t.dirty_write 0 t.n false;
  t.next_obj <- 1;
  t.rmw_objs <- 0;
  Vec.clear t.volatile_wipes;
  Array.fill t.recov_code 0 t.n None;
  Array.fill t.recover_at 0 t.n (-1);
  Array.fill t.recoveries 0 t.n 0;
  t.pending_recov <- 0;
  Vec.clear t.trace

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let steps_of t pid = t.steps.(pid)
let total_steps t = Array.fold_left ( + ) 0 t.steps
let recoveries_of t pid = t.recoveries.(pid)
let total_recoveries t = Array.fold_left ( + ) 0 t.recoveries
let volatile_objects_allocated t = Vec.length t.volatile_wipes
let rmws_of t pid = t.rmws.(pid)
let raw_fences_of t pid = t.raw_fences.(pid)
let total_rmws t = Array.fold_left ( + ) 0 t.rmws
let objects_allocated t = t.next_obj - 1
let rmw_objects_allocated t = t.rmw_objs

let obs t = t.obs
let set_trace t b = t.record_trace <- b
let trace t = Vec.to_list t.trace
let trace_arr t = Vec.to_array t.trace
