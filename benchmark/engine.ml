(* The benchmark's closed loop. Each domain is one client that issues
   its next op only when the previous one completed. Latency runs from
   submit to completion and includes any recycle barrier the op
   triggers or joins. The main domain stays idle apart from moving the
   measurement windows, sampling resident memory and, on a traced run,
   draining the runtime's GC events. *)

open Scs_util
module W = Workloads
module T = Tracer

(* Log-linear latency histogram in ns: 256 sub-buckets per power of two,
   so a reported quantile is within 0.4% of a recorded value. *)
module Hist = struct
  let sub = 8
  let top = 40
  let size = (top - sub + 2) lsl sub

  type t = { b : int array; mutable n : int }

  let create () = { b = Array.make size 0; n = 0 }

  let index v =
    if v < 1 lsl sub then max v 0
    else begin
      let e = ref sub in
      while !e < top && v lsr (!e + 1) > 0 do
        incr e
      done;
      ((!e - sub + 1) lsl sub) + ((v lsr (!e - sub)) land ((1 lsl sub) - 1))
    end

  let lower i =
    if i < 1 lsl sub then i
    else
      let e = (i lsr sub) + sub - 1 in
      ((1 lsl sub) + (i land ((1 lsl sub) - 1))) lsl (e - sub)

  let record t v =
    let i = index v in
    t.b.(i) <- t.b.(i) + 1;
    t.n <- t.n + 1

  let merge ~into t =
    Array.iteri (fun i c -> into.b.(i) <- into.b.(i) + c) t.b;
    into.n <- into.n + t.n

  (* The sample of rank ceil(q n), placed inside its bucket by its rank
     among the bucket's samples. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      let i = ref 0 and seen = ref t.b.(0) in
      while !seen < rank do
        incr i;
        seen := !seen + t.b.(!i)
      done;
      let lo = lower !i and hi = if !i + 1 < size then lower (!i + 1) else lower !i + 1 in
      let c = t.b.(!i) in
      let pos = float_of_int (rank - (!seen - c)) -. 0.5 in
      float_of_int lo +. (float_of_int (hi - lo) *. pos /. float_of_int c)
    end
end

(* Op windows recorded for the correctness gate: one slot per op, in
   per-domain arrays; [res] = -1 marks an op that failed (pending). *)
module Recorder = struct
  let cap = 32768

  type t = {
    gen : int array;
    key : int array;
    read : int array;
    arg : int array;
    resp : int array;
    slot : int array;
    inv : int array;
    res : int array;
    mutable n : int;
    mutable stop_gen : int;  (** every op of this domain in a generation below this is here *)
  }

  let create () =
    let a () = Array.make cap 0 in
    {
      gen = a ();
      key = a ();
      read = a ();
      arg = a ();
      resp = a ();
      slot = a ();
      inv = a ();
      res = a ();
      n = 0;
      stop_gen = max_int;
    }

  let add t ~gen (op : W.op) ~inv ~res =
    let i = t.n in
    t.gen.(i) <- gen;
    t.key.(i) <- op.key;
    t.read.(i) <- (if op.read then 1 else 0);
    t.arg.(i) <- op.arg;
    t.resp.(i) <- op.resp;
    t.slot.(i) <- op.slot;
    t.inv.(i) <- inv;
    t.res.(i) <- res;
    t.n <- i + 1
end

type window = { ops : int; dur_s : float; hist : Hist.t; rss_peak_bytes : int }

type result = {
  windows : window array;
  attempted : int;
  failed_capacity : int;
  failed_other : int;
  errors : string list;
  records : Recorder.t array;
  tracer : T.st;  (** merged over domains, measured window only *)
  spans : T.st array;  (** per-domain copies, for the span log *)
  minor_words : float;
  gc_ns : int;  (** GC time of the worker domains in the measured window *)
  batches : int;
  batched : int;
  measured_s : float;
}

type shared = {
  phase : int Atomic.t;  (** 0 warmup, 1 measure, 2 stop *)
  window : int Atomic.t;
  recycle_req : bool Atomic.t;
  arrived : int Atomic.t;
  sense : bool Atomic.t;
  active : int Atomic.t;
  gen : int Atomic.t;
  seq : int Atomic.t;
}

type dres = {
  hists : Hist.t array;
  wops : int array;
  mutable d_attempted : int;
  mutable d_capacity : int;
  mutable d_other : int;
  mutable d_errors : string list;
  rec_ : Recorder.t;
  mutable d_minor : float;
  mutable d_tracer : T.st;
}

(* GC time from the runtime's own events: per ring (domain), the time
   spent inside the outermost of these phases, clipped to the measured
   window. Ring 0 is the idle main domain and is left out. *)
module Gc_events = struct
  open Runtime_events

  let is_gc = function
    | EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR | EV_STW_LEADER | EV_STW_HANDLER -> true
    | _ -> false

  type t = { cursor : cursor; cb : Callbacks.t; lo : int ref; hi : int ref; total : int ref }

  let rings = 128
  let ns ts = Int64.to_int (Timestamp.to_int64 ts)

  let create () =
    start ();
    resume ();
    let depth = Array.make rings 0 and since = Array.make rings 0 in
    let lo = ref max_int and hi = ref max_int and total = ref 0 in
    let runtime_begin ring ts ph =
      if ring < rings && is_gc ph then begin
        if depth.(ring) = 0 then since.(ring) <- ns ts;
        depth.(ring) <- depth.(ring) + 1
      end
    in
    let runtime_end ring ts ph =
      if ring < rings && is_gc ph && depth.(ring) > 0 then begin
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 && ring <> 0 then begin
          let a = max since.(ring) !lo and b = min (ns ts) !hi in
          if b > a then total := !total + (b - a)
        end
      end
    in
    let cb = Callbacks.create ~runtime_begin ~runtime_end () in
    { cursor = create_cursor None; cb; lo; hi; total }

  let poll t = ignore (read_poll t.cursor t.cb None)

  let close t =
    poll t;
    free_cursor t.cursor;
    pause ()
end

let seed_of seed pid = (seed * 1_000_003) + (pid * 7919) + 1

(* Resident memory of the process. OCaml 5.1's [Gc.quick_stat] heap size
   is stale between major cycles and keeps counting terminated domains,
   so it cannot show a peak; the kernel's count can. *)
let rss_bytes () =
  try
    In_channel.with_open_text "/proc/self/statm" (fun ic ->
        Scanf.sscanf (In_channel.input_all ic) "%d %d" (fun _ resident -> resident * 4096))
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file ->
    (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)

(* One segment: a fresh instance, [warmup_s] of unmeasured ops, then
   [windows] windows of [window_s]. With [record_all] the correctness
   window keeps recording until it fills; otherwise each domain stops at
   the first generation that starts after warmup, so the measured ops
   carry no recording cost. [between], if given, runs on the main domain
   at every window boundary (before the first window and after the last
   included) while the workers are parked; the pause is neither window
   time nor op latency. *)
let run ?between ~(cfg : W.cfg) ~seed ~traced ~warmup_s ~windows ~window_s ~record_all () =
  let n = cfg.domains in
  let inst = W.create ~traced cfg in
  let g = W.gen cfg in
  let sh =
    {
      phase = Atomic.make 0;
      window = Atomic.make 0;
      recycle_req = Atomic.make false;
      arrived = Atomic.make 0;
      sense = Atomic.make false;
      active = Atomic.make n;
      gen = Atomic.make 0;
      seq = Atomic.make 0;
    }
  in
  let worker pid () =
    let st = T.get () in
    T.reset st;
    let d =
      {
        hists = Array.init windows (fun _ -> Hist.create ());
        wops = Array.make windows 0;
        d_attempted = 0;
        d_capacity = 0;
        d_other = 0;
        d_errors = [];
        rec_ = Recorder.create ();
        d_minor = 0.0;
        d_tracer = st;
      }
    in
    let rng = Rng.create (seed_of seed pid) in
    let op = W.new_op () in
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let rebuild () =
      let t0 = T.now () and a0 = allocated () in
      inst.W.recycle ();
      T.bump st T.e_rebuilds 1;
      T.bump st T.e_rebuild_ns (T.now () - t0);
      T.bump st T.e_rebuild_words (int_of_float (allocated () -. a0))
    in
    (* Quiescent sense-reversing barrier: a follower reads the sense
       flag and the generation before it announces arrival, so the
       leader's flip, which follows the count, cannot be missed. The main
       domain leads a pause the same way but makes no generation: its
       followers keep their handles and do not count the wait as op
       time. A follower sleeps once the wait outlasts 200 us, so a
       rebuild or a pause has the processor to itself. *)
    let paused = ref 0 in
    let follow () =
      let s = Atomic.get sh.sense and g0 = Atomic.get sh.gen in
      let t0 = T.now () in
      Atomic.incr sh.arrived;
      let spins = ref 0 in
      while Atomic.get sh.sense = s do
        incr spins;
        if !spins land 63 = 0 && T.now () - t0 > 200_000 then Unix.sleepf 5e-5
        else Domain.cpu_relax ()
      done;
      if Atomic.get sh.gen <> g0 then inst.W.refresh ~pid
      else paused := !paused + (T.now () - t0)
    in
    let lead () =
      while Atomic.get sh.arrived < Atomic.get sh.active - 1 do
        Domain.cpu_relax ()
      done;
      rebuild ();
      Atomic.incr sh.gen;
      Atomic.set sh.arrived 0;
      Atomic.set sh.recycle_req false;
      Atomic.set sh.sense (not (Atomic.get sh.sense));
      inst.W.refresh ~pid
    in
    (* After following a pause, the recycle this op asked for is still due. *)
    let rec request () =
      if Atomic.compare_and_set sh.recycle_req false true then lead ()
      else begin
        let g0 = Atomic.get sh.gen in
        follow ();
        if Atomic.get sh.gen = g0 then request ()
      end
    in
    let barrier f =
      if traced then begin
        T.enter_at st T.l_arena (T.now ());
        f ();
        T.leave_at st (T.now ())
      end
      else f ()
    in
    let minor0 = ref (Gc.minor_words ()) in
    let last_phase = ref 0 in
    let r = d.rec_ in
    let rec loop () =
      let ph = Atomic.get sh.phase in
      if ph = 2 then Atomic.decr sh.active
      else begin
        if ph <> !last_phase then begin
          last_phase := ph;
          T.reset st;
          minor0 := Gc.minor_words ();
          if not record_all then
            r.Recorder.stop_gen <- min r.Recorder.stop_gen (Atomic.get sh.gen + 1)
        end;
        W.next g rng op;
        let w = Atomic.get sh.window in
        paused := 0;
        let t0 = T.now () in
        if traced then T.enter_at st T.l_op t0;
        if Atomic.get sh.recycle_req then barrier follow;
        let gen = Atomic.get sh.gen in
        let recording = gen < r.Recorder.stop_gen in
        if recording && r.Recorder.n = Recorder.cap then r.Recorder.stop_gen <- gen;
        let recording = recording && r.Recorder.n < Recorder.cap in
        let inv = if recording then Atomic.fetch_and_add sh.seq 1 else 0 in
        op.W.recycle <- false;
        let failed =
          match inst.W.apply ~pid op with
          | () -> false
          | exception e ->
              if traced then T.unwind st 1;
              let msg =
                match W.classify e with
                | W.Capacity m ->
                    if ph = 1 then d.d_capacity <- d.d_capacity + 1;
                    "capacity: " ^ m
                | W.Other m ->
                    if ph = 1 then d.d_other <- d.d_other + 1;
                    m
              in
              if List.compare_length_with d.d_errors 8 < 0 then d.d_errors <- msg :: d.d_errors;
              true
        in
        if recording then
          Recorder.add r ~gen op ~inv ~res:(if failed then -1 else Atomic.fetch_and_add sh.seq 1);
        if op.W.recycle || failed then barrier request;
        let t1 = T.now () in
        if traced then T.leave_at st t1;
        if ph = 1 then begin
          d.d_attempted <- d.d_attempted + 1;
          if w < windows then begin
            Hist.record d.hists.(w) (t1 - t0 - !paused);
            d.wops.(w) <- d.wops.(w) + 1
          end
        end;
        loop ()
      end
    in
    loop ();
    d.d_minor <- Gc.minor_words () -. !minor0;
    d.d_tracer <- T.copy st;
    d
  in
  let gc = if traced then Some (Gc_events.create ()) else None in
  let doms = Array.init n (fun pid -> Domain.spawn (worker pid)) in
  let sleep_until deadline f =
    let rec go () =
      let left = float_of_int (deadline - T.now ()) /. 1e9 in
      if left > 0.0 then begin
        Unix.sleepf (Float.min left 0.005);
        f ();
        go ()
      end
    in
    go ()
  in
  let poll () = Option.iter Gc_events.poll gc in
  (* The main domain takes the barrier as its leader: no worker can
     start a recycle meanwhile, and every worker parks as a follower. *)
  let pause f =
    while not (Atomic.compare_and_set sh.recycle_req false true) do
      Unix.sleepf 1e-4
    done;
    while Atomic.get sh.arrived < Atomic.get sh.active do
      Unix.sleepf 1e-4
    done;
    f ();
    Atomic.set sh.arrived 0;
    Atomic.set sh.recycle_req false;
    Atomic.set sh.sense (not (Atomic.get sh.sense))
  in
  let boundary w =
    match between with
    | None -> Atomic.set sh.window w
    | Some f ->
        pause (fun () ->
            f ();
            Atomic.set sh.window w)
  in
  sleep_until (T.now () + int_of_float (warmup_s *. 1e9)) poll;
  boundary 0;
  let b0, c0 = inst.W.batch_counts () in
  let starts = Array.make windows 0 and ends = Array.make windows 0 in
  let peaks = Array.make windows 0 in
  for w = 0 to windows - 1 do
    if w > 0 then boundary w;
    starts.(w) <- T.now ();
    if w = 0 then begin
      Option.iter (fun g -> g.Gc_events.lo := starts.(0)) gc;
      Atomic.set sh.phase 1
    end;
    sleep_until
      (starts.(w) + int_of_float (window_s *. 1e9))
      (fun () ->
        poll ();
        peaks.(w) <- max peaks.(w) (rss_bytes ()));
    ends.(w) <- T.now ()
  done;
  Option.iter (fun f -> pause f) between;
  Atomic.set sh.phase 2;
  Option.iter (fun g -> g.Gc_events.hi := ends.(windows - 1)) gc;
  let ds = Array.map Domain.join doms in
  let b1, c1 = inst.W.batch_counts () in
  Option.iter Gc_events.close gc;
  let windows_res =
    Array.init windows (fun w ->
        let hist = Hist.create () in
        Array.iter (fun d -> Hist.merge ~into:hist d.hists.(w)) ds;
        {
          ops = Array.fold_left (fun a d -> a + d.wops.(w)) 0 ds;
          dur_s = float_of_int (ends.(w) - starts.(w)) /. 1e9;
          hist;
          rss_peak_bytes = peaks.(w);
        })
  in
  let sum f = Array.fold_left (fun a d -> a + f d) 0 ds in
  {
    windows = windows_res;
    attempted = sum (fun d -> d.d_attempted);
    failed_capacity = sum (fun d -> d.d_capacity);
    failed_other = sum (fun d -> d.d_other);
    errors = List.concat_map (fun d -> List.rev d.d_errors) (Array.to_list ds);
    records = Array.map (fun d -> d.rec_) ds;
    tracer = T.merge (Array.to_list (Array.map (fun d -> d.d_tracer) ds));
    spans = Array.map (fun d -> d.d_tracer) ds;
    minor_words = Array.fold_left (fun a d -> a +. d.d_minor) 0.0 ds;
    gc_ns = (match gc with Some g -> !(g.Gc_events.total) | None -> 0);
    batches = b1 - b0;
    batched = c1 - c0;
    measured_s = float_of_int (ends.(windows - 1) - starts.(0)) /. 1e9;
  }
