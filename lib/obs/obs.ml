open Scs_util

type kind = Read | Write | Rmw

type event =
  | Step of { ts : int; pid : int; kind : kind; obj : int; obj_name : string; info : string }
  | Op_begin of { ts : int; pid : int; obj : int; label : string }
  | Op_end of { ts : int; pid : int; obj : int; aborted : bool }
  | Handoff of { ts : int; pid : int; label : string }
  | Crash of { ts : int; pid : int }
  | Recover of { ts : int; pid : int }
  | Note of { ts : int; text : string }

type op_metric = {
  om_pid : int;
  om_obj : int;
  om_label : string;
  om_start : int;
  om_finish : int;
  om_steps : int;
  om_step_contention : int;
  om_interval_contention : int;
  om_aborted : bool;
}

(* One open operation bracket. [oo_overlap] marks every other process
   observed with a simultaneously-open bracket — its cardinality at
   op_end is the interval contention of this operation. A pid bitmask
   (n <= 62, matching the simulator's process cap) so begin/end
   allocate no per-bracket array and count by popcount. *)
type open_op = {
  oo_obj : int;
  oo_label : string;
  oo_start : int;
  oo_steps0 : int;  (* own steps at begin *)
  oo_total0 : int;  (* global steps at begin *)
  mutable oo_overlap : int;  (* bit q: overlapped process q *)
}

(* Ring tags: the event ring is a struct-of-arrays (one int tag plus
   scalar slots per event) so recording a step allocates nothing on the
   minor heap; events are re-boxed on demand by [events]. *)
let tag_step_read = 0 (* ts pid obj, s1=obj_name s2=info *)
let tag_step_write = 1
let tag_step_rmw = 2
let tag_op_begin = 3 (* ts pid obj, s1=label *)
let tag_op_end = 4 (* ts pid obj *)
let tag_op_end_abort = 5
let tag_handoff = 6 (* ts pid, s1=label *)
let tag_crash = 7 (* ts pid *)
let tag_note = 8 (* ts, s1=text *)
let tag_recover = 9 (* ts pid *)

type t = {
  enabled : bool;
  n : int;
  ring_on : bool;
      (* [false] skips every event-ring write (the counters, census and
         op metrics are unaffected): the throughput engines use it for
         batch sinks whose ring nobody replays, removing two string
         write-barrier stores per simulated step from the hot path. *)
  ring_capacity : int;
  r_tag : int array;  (* circular; valid once written *)
  r_ts : int array;
  r_pid : int array;
  r_obj : int array;
  r_s1 : string array;
  r_s2 : string array;
  mutable ring_head : int;  (* next write slot *)
  mutable ring_len : int;
  mutable clock : int;
  steps : int array;
  rmws : int array;
  cas : int array;
  aborts : int array;
  handoffs : int array;
  mutable crashed : int list;  (* reverse crash order *)
  mutable recovered : int list;  (* reverse recovery order *)
  (* per-object access census, dense int-indexed arrays (simulator obj
     ids are small and dense); an object is "seen" iff its step count is
     positive. An object allocated mid-run can get an id that another
     object had in an earlier run: when an id shows up under a new name,
     its counters so far move to [retired], and the census is merged by
     name. *)
  mutable obj_names : string array;
  mutable obj_steps : int array;
  mutable obj_rmws : int array;
  mutable obj_hi : int;  (* 1 + highest id seen *)
  retired : (string, int * int) Hashtbl.t;  (* name -> steps, rmws *)
  open_ops : open_op option array;
  metrics : op_metric Vec.t;
  mutable max_step_cont : int;
  mutable max_ivl_cont : int;
}

let create ?(ring_capacity = 4096) ?(record_ring = true) ~n () =
  if n <= 0 then invalid_arg "Obs.create: n must be positive";
  if n > 62 then
    invalid_arg
      "Obs.create: at most 62 processes (overlap sets are word-sized bitmasks, \
       matching the simulator's cap)";
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity must be positive";
  {
    enabled = true;
    n;
    ring_on = record_ring;
    ring_capacity;
    r_tag = Array.make ring_capacity tag_note;
    r_ts = Array.make ring_capacity 0;
    r_pid = Array.make ring_capacity 0;
    r_obj = Array.make ring_capacity 0;
    r_s1 = Array.make ring_capacity "";
    r_s2 = Array.make ring_capacity "";
    ring_head = 0;
    ring_len = 0;
    clock = 0;
    steps = Array.make n 0;
    rmws = Array.make n 0;
    cas = Array.make n 0;
    aborts = Array.make n 0;
    handoffs = Array.make n 0;
    crashed = [];
    recovered = [];
    obj_names = [||];
    obj_steps = [||];
    obj_rmws = [||];
    obj_hi = 0;
    retired = Hashtbl.create 16;
    open_ops = Array.make n None;
    metrics = Vec.create ();
    max_step_cont = 0;
    max_ivl_cont = 0;
  }

let null =
  {
    enabled = false;
    n = 0;
    ring_on = false;
    ring_capacity = 1;
    r_tag = [| tag_note |];
    r_ts = [| 0 |];
    r_pid = [| 0 |];
    r_obj = [| 0 |];
    r_s1 = [| "" |];
    r_s2 = [| "" |];
    ring_head = 0;
    ring_len = 0;
    clock = 0;
    steps = [||];
    rmws = [||];
    cas = [||];
    aborts = [||];
    handoffs = [||];
    crashed = [];
    recovered = [];
    obj_names = [||];
    obj_steps = [||];
    obj_rmws = [||];
    obj_hi = 0;
    retired = Hashtbl.create 1;
    open_ops = [||];
    metrics = Vec.create ();
    max_step_cont = 0;
    max_ivl_cont = 0;
  }

let enabled t = t.enabled
let ring_capacity t = t.ring_capacity

let push_raw t tag ts pid obj s1 s2 =
  if t.ring_on then begin
    let h = t.ring_head in
    t.r_tag.(h) <- tag;
    t.r_ts.(h) <- ts;
    t.r_pid.(h) <- pid;
    t.r_obj.(h) <- obj;
    t.r_s1.(h) <- s1;
    t.r_s2.(h) <- s2;
    t.ring_head <- (h + 1) mod t.ring_capacity;
    if t.ring_len < t.ring_capacity then t.ring_len <- t.ring_len + 1
  end

(* allocation-free [String.sub info 0 3 = "cas"] *)
let is_cas info =
  String.length info >= 3
  && String.unsafe_get info 0 = 'c'
  && String.unsafe_get info 1 = 'a'
  && String.unsafe_get info 2 = 's'

let ensure_obj t id =
  let cap = Array.length t.obj_steps in
  if id >= cap then begin
    let ncap = max (id + 1) (max 16 (2 * cap)) in
    let names = Array.make ncap "" in
    let steps = Array.make ncap 0 in
    let rmws = Array.make ncap 0 in
    Array.blit t.obj_names 0 names 0 cap;
    Array.blit t.obj_steps 0 steps 0 cap;
    Array.blit t.obj_rmws 0 rmws 0 cap;
    t.obj_names <- names;
    t.obj_steps <- steps;
    t.obj_rmws <- rmws
  end

let add_named tbl name steps rmws =
  let s, r = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
  Hashtbl.replace tbl name (s + steps, r + rmws)

(* Point census slot [id] at [name]; [id] may hold another object's
   counts. A physically equal name is the common case and costs one
   test. *)
let claim t id name =
  if t.obj_steps.(id) = 0 then begin
    t.obj_names.(id) <- name;
    if id >= t.obj_hi then t.obj_hi <- id + 1
  end
  else if t.obj_names.(id) != name then begin
    if not (String.equal t.obj_names.(id) name) then begin
      add_named t.retired t.obj_names.(id) t.obj_steps.(id) t.obj_rmws.(id);
      t.obj_steps.(id) <- 0;
      t.obj_rmws.(id) <- 0
    end;
    t.obj_names.(id) <- name
  end

let step t ~pid ~kind ~obj ~obj_name ~info =
  if t.enabled then begin
    t.clock <- t.clock + 1;
    t.steps.(pid) <- t.steps.(pid) + 1;
    ensure_obj t obj;
    claim t obj obj_name;
    t.obj_steps.(obj) <- t.obj_steps.(obj) + 1;
    match kind with
    | Rmw ->
        t.rmws.(pid) <- t.rmws.(pid) + 1;
        if is_cas info then t.cas.(pid) <- t.cas.(pid) + 1;
        t.obj_rmws.(obj) <- t.obj_rmws.(obj) + 1;
        push_raw t tag_step_rmw t.clock pid obj obj_name info
    | Read -> push_raw t tag_step_read t.clock pid obj obj_name info
    | Write -> push_raw t tag_step_write t.clock pid obj obj_name info
  end

(* [clock] ticks exactly once per recorded step, so it doubles as the
   global step total — the brackets below rely on that to avoid folding
   [steps] on every begin/end. *)
let total_steps t = t.clock

let close_bracket t pid ~aborted =
  match t.open_ops.(pid) with
  | None -> ()
  | Some oo ->
      t.open_ops.(pid) <- None;
      let own = t.steps.(pid) - oo.oo_steps0 in
      let all = total_steps t - oo.oo_total0 in
      let ivl = ref 0 in
      let ov = ref oo.oo_overlap in
      while !ov <> 0 do
        ov := !ov land (!ov - 1);
        incr ivl
      done;
      let m =
        {
          om_pid = pid;
          om_obj = oo.oo_obj;
          om_label = oo.oo_label;
          om_start = oo.oo_start;
          om_finish = t.clock;
          om_steps = own;
          om_step_contention = all - own;
          om_interval_contention = !ivl;
          om_aborted = aborted;
        }
      in
      if m.om_step_contention > t.max_step_cont then
        t.max_step_cont <- m.om_step_contention;
      if m.om_interval_contention > t.max_ivl_cont then
        t.max_ivl_cont <- m.om_interval_contention;
      Vec.push t.metrics m;
      push_raw t (if aborted then tag_op_end_abort else tag_op_end) t.clock pid oo.oo_obj "" ""

let op_begin t ~pid ~obj ~label =
  if t.enabled then begin
    close_bracket t pid ~aborted:false;
    let oo =
      {
        oo_obj = obj;
        oo_label = label;
        oo_start = t.clock;
        oo_steps0 = t.steps.(pid);
        oo_total0 = total_steps t;
        oo_overlap = 0;
      }
    in
    (* Mutual overlap marking with every currently-open bracket. *)
    let bit_pid = 1 lsl pid in
    for q = 0 to t.n - 1 do
      if q <> pid then
        match t.open_ops.(q) with
        | Some oq ->
            oq.oo_overlap <- oq.oo_overlap lor bit_pid;
            oo.oo_overlap <- oo.oo_overlap lor (1 lsl q)
        | None -> ()
    done;
    t.open_ops.(pid) <- Some oo;
    push_raw t tag_op_begin t.clock pid obj label ""
  end

let op_end t ~pid ~aborted = if t.enabled then close_bracket t pid ~aborted

let abort t ~pid =
  if t.enabled then t.aborts.(pid) <- t.aborts.(pid) + 1

let handoff t ~pid ~label =
  if t.enabled then begin
    t.handoffs.(pid) <- t.handoffs.(pid) + 1;
    push_raw t tag_handoff t.clock pid 0 label ""
  end

let crash t ~pid =
  if t.enabled then begin
    close_bracket t pid ~aborted:true;
    t.crashed <- pid :: t.crashed;
    push_raw t tag_crash t.clock pid 0 "" ""
  end

let recover t ~pid =
  if t.enabled then begin
    t.recovered <- pid :: t.recovered;
    push_raw t tag_recover t.clock pid 0 "" ""
  end

let note t text = if t.enabled then push_raw t tag_note t.clock 0 0 text ""

let n t = t.n
let clock t = t.clock
let steps_of t pid = t.steps.(pid)
let rmws_of t pid = t.rmws.(pid)
let cas_attempts_of t pid = t.cas.(pid)
let aborts_of t pid = t.aborts.(pid)
let total_aborts t = Array.fold_left ( + ) 0 t.aborts
let handoffs_of t pid = t.handoffs.(pid)
let total_handoffs t = Array.fold_left ( + ) 0 t.handoffs
let crashes t = List.rev t.crashed
let recoveries t = List.rev t.recovered

let objects t =
  let by_name = Hashtbl.copy t.retired in
  for id = 0 to t.obj_hi - 1 do
    if t.obj_steps.(id) > 0 then
      add_named by_name t.obj_names.(id) t.obj_steps.(id) t.obj_rmws.(id)
  done;
  Hashtbl.fold (fun name (steps, rmws) acc -> (name, steps, rmws) :: acc) by_name []
  |> List.sort (fun (na, a, _) (nb, b, _) -> if a <> b then compare b a else String.compare na nb)

let op_metrics t = Vec.to_list t.metrics
let max_step_contention t = t.max_step_cont
let max_interval_contention t = t.max_ivl_cont

let event_at t i =
  let idx = (t.ring_head - t.ring_len + i + (2 * t.ring_capacity)) mod t.ring_capacity in
  let tag = t.r_tag.(idx) in
  let ts = t.r_ts.(idx) and pid = t.r_pid.(idx) and obj = t.r_obj.(idx) in
  if tag <= tag_step_rmw then
    let kind = if tag = tag_step_read then Read else if tag = tag_step_write then Write else Rmw in
    Step { ts; pid; kind; obj; obj_name = t.r_s1.(idx); info = t.r_s2.(idx) }
  else if tag = tag_op_begin then Op_begin { ts; pid; obj; label = t.r_s1.(idx) }
  else if tag = tag_op_end then Op_end { ts; pid; obj; aborted = false }
  else if tag = tag_op_end_abort then Op_end { ts; pid; obj; aborted = true }
  else if tag = tag_handoff then Handoff { ts; pid; label = t.r_s1.(idx) }
  else if tag = tag_crash then Crash { ts; pid }
  else if tag = tag_recover then Recover { ts; pid }
  else Note { ts; text = t.r_s1.(idx) }

let events t = List.init t.ring_len (event_at t)

let merge_into ~into src =
  if not src.enabled then ()
  else begin
    if not into.enabled then invalid_arg "Obs.merge_into: destination sink is disabled";
    if into.n < src.n then invalid_arg "Obs.merge_into: destination sized for fewer processes";
    into.clock <- into.clock + src.clock;
    for pid = 0 to src.n - 1 do
      into.steps.(pid) <- into.steps.(pid) + src.steps.(pid);
      into.rmws.(pid) <- into.rmws.(pid) + src.rmws.(pid);
      into.cas.(pid) <- into.cas.(pid) + src.cas.(pid);
      into.aborts.(pid) <- into.aborts.(pid) + src.aborts.(pid);
      into.handoffs.(pid) <- into.handoffs.(pid) + src.handoffs.(pid)
    done;
    (* crashes/recoveries: source order appended after the destination's *)
    into.crashed <- src.crashed @ into.crashed;
    into.recovered <- src.recovered @ into.recovered;
    for id = 0 to src.obj_hi - 1 do
      if src.obj_steps.(id) > 0 then begin
        ensure_obj into id;
        claim into id src.obj_names.(id);
        into.obj_steps.(id) <- into.obj_steps.(id) + src.obj_steps.(id);
        into.obj_rmws.(id) <- into.obj_rmws.(id) + src.obj_rmws.(id)
      end
    done;
    Hashtbl.iter (fun name (steps, rmws) -> add_named into.retired name steps rmws) src.retired;
    Vec.iter (Vec.push into.metrics) src.metrics;
    if src.max_step_cont > into.max_step_cont then into.max_step_cont <- src.max_step_cont;
    if src.max_ivl_cont > into.max_ivl_cont then into.max_ivl_cont <- src.max_ivl_cont;
    (* replay the source ring oldest-first; destination eviction applies *)
    for i = 0 to src.ring_len - 1 do
      let idx = (src.ring_head - src.ring_len + i + (2 * src.ring_capacity)) mod src.ring_capacity in
      push_raw into src.r_tag.(idx) src.r_ts.(idx) src.r_pid.(idx) src.r_obj.(idx) src.r_s1.(idx)
        src.r_s2.(idx)
    done
  end
