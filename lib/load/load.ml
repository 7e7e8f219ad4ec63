open Scs_util
open Scs_spec
open Scs_composable

type workload =
  | Speculative
  | Strict_tas
  | Solo_fast
  | One_shot
  | Hardware
  | Ttas_lock
  | Chain

let workload_name = function
  | Speculative -> "speculative"
  | Strict_tas -> "strict-tas"
  | Solo_fast -> "solo-fast"
  | One_shot -> "one-shot"
  | Hardware -> "hardware"
  | Ttas_lock -> "ttas-lock"
  | Chain -> "chain"

let workload_of_string = function
  | "speculative" -> Some Speculative
  | "strict-tas" | "strict" -> Some Strict_tas
  | "solo-fast" -> Some Solo_fast
  | "one-shot" -> Some One_shot
  | "hardware" -> Some Hardware
  | "ttas-lock" | "ttas" -> Some Ttas_lock
  | "chain" -> Some Chain
  | _ -> None

let all_workloads = [ Speculative; Strict_tas; Solo_fast; One_shot; Hardware; Ttas_lock; Chain ]

let workload_families =
  [
    ("tas", [ Speculative; Strict_tas; Solo_fast; One_shot; Hardware; Ttas_lock ]);
    ("chain", [ Chain ]);
  ]

type cfg = {
  workload : workload;
  domains : int;
  mix : Mix.t;
  rounds : int;
  epoch_ops : int;
  chain_capacity : int;
  warmup_s : float;
  duration_s : float;
  seed : int;
}

let default_cfg ~workload ~domains =
  {
    workload;
    domains;
    mix = Mix.make ~read_ratio:0.5 ~keys:16 ~skew:(Mix.Zipfian 0.99);
    rounds = 4096;
    epoch_ops = 8192;
    chain_capacity = 1024;
    warmup_s = 0.2;
    duration_s = 1.0;
    seed = 42;
  }

(* Flag word returned by driver closures: low bits are events of this
   op, bytes 1 and 2 carry small counters. *)
let f_win = 1
let f_reset = 2
let f_recycle = 4
let f_aborts n = (n land 0xff) lsl 8
let f_handoffs n = (n land 0xff) lsl 16
let flag_aborts fl = (fl lsr 8) land 0xff
let flag_handoffs fl = (fl lsr 16) land 0xff

type inst = {
  i_read : pid:int -> key:int -> int;
  i_update : pid:int -> key:int -> rng:Rng.t -> int;
  i_refresh : pid:int -> unit;
  i_recycle : unit -> unit;
}

module Driver (P : Scs_prims.Prims_intf.S) = struct
  module Os = Scs_tas.One_shot.Make (P)
  module Ll = Scs_tas.Long_lived.Make (P)
  module Sf = Scs_tas.Solo_fast.Make (P)
  module Lk = Scs_tas.Locks.Make (P)
  module Bl = Scs_tas.Baselines.Make (P)
  module Ch = Scs_consensus.Chain.Make (P)
  module Sc = Scs_consensus.Split_consensus.Make (P)
  module Ab = Scs_consensus.Abortable_bakery.Make (P)
  module Cc = Scs_consensus.Cas_consensus.Make (P)
  module CI = Scs_consensus.Consensus_intf

  let spf = Printf.sprintf
  let idx i = "[" ^ string_of_int i ^ "]"
  let round_capacity_message = "Long_lived.test_and_set: round capacity exceeded"

  (* Long-lived composed TAS arena (Speculative / Strict_tas). Rounds
     advance as winners reset; when any key's round count nears the
     array bound, the op requests a recycle and the barrier leader
     rewinds every object ([harness_recycle], sound at quiescence). *)
  let long_lived ~strict ~domains ~keys ~rounds =
    let margin = (4 * domains) + 4 in
    let arr =
      Array.init keys (fun k -> Ll.create ~strict ~name:(spf "load.ll[%d]" k) ~rounds ())
    in
    let handles = Array.init domains (fun pid -> Array.map (fun t -> Ll.handle t ~pid) arr) in
    let i_update ~pid ~key ~rng:_ =
      let h = handles.(pid).(key) in
      match Ll.test_and_set_info h with
      | resp, stage, round ->
          let won = resp = Objects.Winner in
          if won then Ll.reset h;
          (if won then f_win lor f_reset else 0)
          lor (if stage = Scs_tas.One_shot.Fallback then f_aborts 1 lor f_handoffs 1 else 0)
          lor if round >= rounds - margin then f_recycle else 0
      (* rounds other domains win before they park at the barrier can
         use up the margin; any other failure is a bug and fails the run *)
      | exception Failure msg when msg = round_capacity_message -> f_recycle
    in
    let i_read ~pid ~key = if Ll.value_read handles.(pid).(key) then f_win else 0 in
    {
      i_read;
      i_update;
      i_refresh = (fun ~pid:_ -> ());
      i_recycle = (fun () -> Array.iter Ll.harness_recycle arr);
    }

  (* One-shot composition arenas (One_shot / Solo_fast): each key holds
     a single decision; per-domain epoch budgets trigger a periodic
     harness reset so the contended decision path keeps being
     exercised instead of degenerating into a loser-probe loop. *)
  let one_shot_arena ~domains ~keys ~epoch_ops =
    let arr = Array.init keys (fun k -> Os.create ~name:(spf "load.os[%d]" k) ()) in
    let local = Array.make domains 0 in
    let i_update ~pid ~key ~rng:_ =
      let resp, stage = Os.test_and_set_staged arr.(key) ~pid in
      let c = local.(pid) + 1 in
      local.(pid) <- c;
      (if resp = Objects.Winner then f_win else 0)
      lor (if stage = Scs_tas.One_shot.Fallback then f_aborts 1 lor f_handoffs 1 else 0)
      lor if c >= epoch_ops then f_recycle else 0
    in
    let i_read ~pid:_ ~key = if Os.value_read arr.(key) then f_win else 0 in
    {
      i_read;
      i_update;
      i_refresh = (fun ~pid -> local.(pid) <- 0);
      i_recycle = (fun () -> Array.iter Os.harness_reset arr);
    }

  let solo_fast_arena ~domains ~keys ~epoch_ops =
    let arr = Array.init keys (fun k -> Sf.create ~name:(spf "load.sf[%d]" k) ()) in
    let local = Array.make domains 0 in
    let i_update ~pid ~key ~rng:_ =
      let resp, stage = Sf.test_and_set_staged arr.(key) ~pid in
      let c = local.(pid) + 1 in
      local.(pid) <- c;
      (if resp = Objects.Winner then f_win else 0)
      lor (if stage = Scs_tas.One_shot.Fallback then f_aborts 1 lor f_handoffs 1 else 0)
      lor if c >= epoch_ops then f_recycle else 0
    in
    let i_read ~pid:_ ~key = if Sf.value_read arr.(key) then f_win else 0 in
    {
      i_read;
      i_update;
      i_refresh = (fun ~pid -> local.(pid) <- 0);
      i_recycle = (fun () -> Array.iter Sf.harness_reset arr);
    }

  (* Raw hardware TAS baseline: win/reset cycles, one AWAR per update
     even uncontended — the cost the speculative objects avoid. *)
  let hardware ~keys =
    let arr = Array.init keys (fun k -> Bl.Hardware.create ~name:(spf "load.hw[%d]" k) ()) in
    let i_update ~pid ~key ~rng:_ =
      match Bl.Hardware.test_and_set arr.(key) ~pid with
      | Objects.Winner ->
          Bl.Hardware.reset arr.(key);
          f_win lor f_reset
      | Objects.Loser -> 0
    in
    let i_read ~pid:_ ~key = if Bl.Hardware.read arr.(key) then f_win else 0 in
    {
      i_read;
      i_update;
      i_refresh = (fun ~pid:_ -> ());
      i_recycle = (fun () -> ());
    }

  (* TTAS lock baseline: per-key lock-protected counter. The counter
     cells are plain ints written only under the lock; the unlocked
     read is an intentional benign race (immediate values cannot
     tear). *)
  let ttas_lock ~keys =
    let locks = Array.init keys (fun k -> Lk.Ttas.create ~name:(spf "load.lk[%d]" k) ()) in
    let cells = Array.make keys 0 in
    let i_update ~pid:_ ~key ~rng:_ =
      Lk.Ttas.acquire locks.(key);
      cells.(key) <- cells.(key) + 1;
      Lk.Ttas.release locks.(key);
      f_win lor f_reset
    in
    let i_read ~pid:_ ~key = if cells.(key) > 0 then f_win else 0 in
    {
      i_read;
      i_update;
      i_refresh = (fun ~pid:_ -> ());
      i_recycle = (fun () -> ());
    }

  (* Composed consensus chain: per key, an array of chain instances and
     an atomic cursor. Every proposer plays the current instance (that
     is the contention); the round winner advances the cursor. Nearing
     the end of the array requests a recycle; the leader rebuilds the
     instances and rewinds the cursors. Handoffs are counted by the
     chain's own [on_handoff] hook into per-domain cells. *)
  let chain ~domains ~keys ~capacity =
    let margin = (2 * domains) + 2 in
    let hand = Array.make domains 0 in
    let on_handoff ~pid ~stage:_ = hand.(pid) <- hand.(pid) + 1 in
    let mk_chain k i =
      let name = "load.chain" ^ idx k ^ idx i in
      Ch.make ~on_handoff ~name
        [
          Sc.instance (Sc.create ~name:(name ^ ".split") ());
          Ab.instance (Ab.create ~name:(name ^ ".bakery") ~n:domains ());
          Cc.instance (Cc.create ~name:(name ^ ".cas") ());
        ]
    in
    let arena = Array.init keys (fun k -> Array.init capacity (mk_chain k)) in
    let cur = Array.init keys (fun _ -> Atomic.make 0) in
    let i_update ~pid ~key ~rng:_ =
      let i = Atomic.get cur.(key) in
      if i >= capacity then f_recycle
      else begin
        let inst = arena.(key).(i) in
        let h0 = hand.(pid) in
        let won =
          match inst.CI.run ~pid ~old:None (pid + 1) with
          | Outcome.Commit (Some v) -> v = pid + 1
          | _ -> false
        in
        if won then ignore (Atomic.compare_and_set cur.(key) i (i + 1));
        let switched = hand.(pid) - h0 in
        (if won then f_win else 0)
        lor f_aborts switched lor f_handoffs switched
        lor if i >= capacity - margin then f_recycle else 0
      end
    in
    let i_read ~pid ~key =
      let i = min (Atomic.get cur.(key)) (capacity - 1) in
      match arena.(key).(i).CI.propose_raw ~pid None with
      | Outcome.Commit (Some _) -> f_win
      | _ -> 0
    in
    (* Rebuild only the decided prefix of each key: recycle cost stays
       proportional to the ops since the last recycle (a consensus
       instance decides once, so arena churn is intrinsic to a chain
       closed loop), not to [keys * capacity]. *)
    let i_recycle () =
      Array.iteri
        (fun k chains ->
          let used = min (Atomic.get cur.(k) + 1) capacity in
          for i = 0 to used - 1 do
            chains.(i) <- mk_chain k i
          done;
          Atomic.set cur.(k) 0)
        arena
    in
    { i_read; i_update; i_refresh = (fun ~pid:_ -> ()); i_recycle }

  let make cfg =
    let domains = cfg.domains and keys = Mix.keys cfg.mix in
    match cfg.workload with
    | Speculative -> long_lived ~strict:false ~domains ~keys ~rounds:cfg.rounds
    | Strict_tas -> long_lived ~strict:true ~domains ~keys ~rounds:cfg.rounds
    | One_shot -> one_shot_arena ~domains ~keys ~epoch_ops:cfg.epoch_ops
    | Solo_fast -> solo_fast_arena ~domains ~keys ~epoch_ops:cfg.epoch_ops
    | Hardware -> hardware ~keys
    | Ttas_lock -> ttas_lock ~keys
    | Chain -> chain ~domains ~keys ~capacity:cfg.chain_capacity
end

(* ------------------------------------------------------------------ *)
(* The native engine.                                                  *)

type result = {
  r_workload : workload;
  r_label : string;
  r_domains : int;
  r_elapsed_s : float;
  r_ops : int;
  r_reads : int;
  r_updates : int;
  r_ops_per_sec : float;
  r_p50_us : float;
  r_p99_us : float;
  r_p999_us : float;
  r_mean_us : float;
  r_max_us : float;
  r_aborts : int;
  r_handoffs : int;
  r_wins : int;
  r_resets : int;
  r_recycles : int;
  r_abort_rate : float;
}

type dstat = {
  mutable s_ops : int;
  mutable s_reads : int;
  mutable s_updates : int;
  mutable s_wins : int;
  mutable s_resets : int;
  mutable s_recycles : int;
}

type shared = {
  phase : int Atomic.t;  (* 0 warmup, 1 measure, 2 stop *)
  recycle_req : bool Atomic.t;
  arrived : int Atomic.t;
  sense : bool Atomic.t;
  active : int Atomic.t;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let run cfg =
  if cfg.domains < 1 then invalid_arg "Load.run: domains must be >= 1";
  let domains = cfg.domains and mix = cfg.mix in
  let inst =
    let module D = Driver (Scs_prims.Native_prims) in
    D.make cfg
  in
  let sh =
    {
      phase = Atomic.make 0;
      recycle_req = Atomic.make false;
      arrived = Atomic.make 0;
      sense = Atomic.make false;
      active = Atomic.make domains;
    }
  in
  let hists = Array.init domains (fun _ -> Hist.create ()) in
  let sinks = Array.init domains (fun _ -> Scs_obs.Obs.create ~record_ring:false ~n:domains ()) in
  let stats =
    Array.init domains (fun _ ->
        { s_ops = 0; s_reads = 0; s_updates = 0; s_wins = 0; s_resets = 0; s_recycles = 0 })
  in
  let worker pid =
    let rng = Rng.create ((cfg.seed * 1_000_003) + pid + 1) in
    let st = stats.(pid) and h = hists.(pid) and o = sinks.(pid) in
    (* Quiescent recycle barrier. A follower must read the sense flag
       BEFORE announcing arrival: the leader only releases (flips the
       flag) after counting us, so the flip is ordered after our read
       and we cannot miss it. *)
    let follow_barrier () =
      let s = Atomic.get sh.sense in
      Atomic.incr sh.arrived;
      while Atomic.get sh.sense = s do
        Domain.cpu_relax ()
      done;
      inst.i_refresh ~pid
    in
    let lead_barrier () =
      st.s_recycles <- st.s_recycles + 1;
      (* [active] is re-read each spin: a domain that observes the stop
         phase exits by decrementing it instead of arriving. *)
      while Atomic.get sh.arrived < Atomic.get sh.active - 1 do
        Domain.cpu_relax ()
      done;
      inst.i_recycle ();
      Atomic.set sh.arrived 0;
      Atomic.set sh.recycle_req false;
      Atomic.set sh.sense (not (Atomic.get sh.sense));
      inst.i_refresh ~pid
    in
    let request_recycle () =
      if Atomic.compare_and_set sh.recycle_req false true then lead_barrier ()
      else follow_barrier ()
    in
    let rec loop () =
      if Atomic.get sh.recycle_req then follow_barrier ();
      let ph = Atomic.get sh.phase in
      if ph = 2 then Atomic.decr sh.active
      else begin
        let is_read = Mix.is_read mix rng in
        let key = Mix.sample_key mix rng in
        let t0 = if ph = 1 then now_ns () else 0 in
        let fl = if is_read then inst.i_read ~pid ~key else inst.i_update ~pid ~key ~rng in
        if ph = 1 then begin
          Hist.record h (now_ns () - t0);
          st.s_ops <- st.s_ops + 1;
          if is_read then st.s_reads <- st.s_reads + 1 else st.s_updates <- st.s_updates + 1;
          if fl land f_win <> 0 then st.s_wins <- st.s_wins + 1;
          if fl land f_reset <> 0 then st.s_resets <- st.s_resets + 1;
          for _ = 1 to flag_aborts fl do
            Scs_obs.Obs.abort o ~pid
          done;
          for _ = 1 to flag_handoffs fl do
            Scs_obs.Obs.handoff o ~pid ~label:"switch"
          done
        end;
        if fl land f_recycle <> 0 then request_recycle ();
        loop ()
      end
    in
    loop ()
  in
  let doms = Array.init domains (fun pid -> Domain.spawn (fun () -> worker pid)) in
  if cfg.warmup_s > 0.0 then Unix.sleepf cfg.warmup_s;
  let t0 = now_ns () in
  Atomic.set sh.phase 1;
  Unix.sleepf cfg.duration_s;
  Atomic.set sh.phase 2;
  let t1 = now_ns () in
  Array.iter Domain.join doms;
  let elapsed = float_of_int (t1 - t0) /. 1e9 in
  let hist = Hist.create () in
  Array.iter (fun h -> Hist.merge ~into:hist h) hists;
  let merged = Scs_obs.Obs.create ~record_ring:false ~n:domains () in
  Array.iter (fun o -> Scs_obs.Obs.merge_into ~into:merged o) sinks;
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  let ops = sum (fun s -> s.s_ops) and updates = sum (fun s -> s.s_updates) in
  let aborts = Scs_obs.Obs.total_aborts merged in
  let us ns = float_of_int ns /. 1e3 in
  {
    r_workload = cfg.workload;
    r_label = Printf.sprintf "native:%s:%s" (workload_name cfg.workload) (Mix.describe mix);
    r_domains = domains;
    r_elapsed_s = elapsed;
    r_ops = ops;
    r_reads = sum (fun s -> s.s_reads);
    r_updates = updates;
    r_ops_per_sec = (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
    r_p50_us = us (Hist.quantile hist 0.5);
    r_p99_us = us (Hist.quantile hist 0.99);
    r_p999_us = us (Hist.quantile hist 0.999);
    r_mean_us = Hist.mean hist /. 1e3;
    r_max_us = us (Hist.max_value hist);
    r_aborts = aborts;
    r_handoffs = Scs_obs.Obs.total_handoffs merged;
    r_wins = sum (fun s -> s.s_wins);
    r_resets = sum (fun s -> s.s_resets);
    r_recycles = sum (fun s -> s.s_recycles);
    r_abort_rate = float_of_int aborts /. float_of_int (max 1 updates);
  }

let to_record r =
  {
    Scs_obs.Trajectory.workload = r.r_label;
    sim_backend = None;
    n = r.r_domains;
    runs = r.r_ops;
    p50_steps = 0.0;
    p99_steps = 0.0;
    max_interval_contention = 0;
    schedules_per_sec = r.r_ops_per_sec;
    native =
      Some
        {
          Scs_obs.Trajectory.backend = "native";
          domains = r.r_domains;
          ops_per_sec = r.r_ops_per_sec;
          p50_us = r.r_p50_us;
          p99_us = r.r_p99_us;
          p999_us = r.r_p999_us;
          abort_rate = r.r_abort_rate;
        };
  }

(* ------------------------------------------------------------------ *)
(* Simulator selfcheck: the same driver code under Sim_prims.          *)

let sim_selfcheck ?(seed = 7) ?(backend = Scs_prims.Backend.default) ~n ~ops_per_proc
    workload =
  let keys = 2 in
  let cfg =
    {
      (default_cfg ~workload ~domains:n) with
      mix = Mix.make ~read_ratio:0.0 ~keys ~skew:Mix.Uniform;
      seed;
      (* budgets far above 2 * ops_per_proc: recycling is driven
         explicitly at the epoch boundary below *)
      rounds = max 64 (16 * n * ops_per_proc);
      epoch_ops = max 64 (16 * n * ops_per_proc);
      chain_capacity = max 64 (16 * n * ops_per_proc);
    }
  in
  let sim = Scs_sim.Sim.create ~n ()
  and rows = ref [] (* (epoch, pid, key, flags) *) in
  let module P = (val Scs_prims.Backend.sim_prims backend sim) in
  let module D = Driver (P) in
  let inst = D.make cfg in
  let do_ops ~epoch pid =
    let rng = Rng.create (seed + pid) in
    for i = 0 to ops_per_proc - 1 do
      let key = (i + pid) mod keys in
      let fl = inst.i_update ~pid ~key ~rng in
      rows := (epoch, pid, key, fl) :: !rows
    done
  in
  for pid = 0 to n - 1 do
    Scs_sim.Sim.spawn sim pid (fun () ->
        do_ops ~epoch:0 pid;
        if pid = n - 1 then begin
          (* Last fiber under the sequential policy: everyone else is
             done, so the arena is quiescent — recycle, refresh every
             pid's handles, and run a second epoch on their behalf. *)
          inst.i_recycle ();
          for p = 0 to n - 1 do
            inst.i_refresh ~pid:p
          done;
          for p = 0 to n - 1 do
            do_ops ~epoch:1 p
          done
        end)
  done;
  (* Sequential policy: always run the lowest runnable pid, so each
     fiber executes to completion in pid order — every operation is
     solo (no step contention). *)
  Scs_sim.Sim.run sim (Scs_sim.Policy.sequential ());
  let rows = !rows in
  let total = List.length rows in
  let aborts = List.fold_left (fun acc (_, _, _, fl) -> acc + flag_aborts fl) 0 rows in
  let wins_at epoch key =
    List.fold_left
      (fun acc (e, _, k, fl) -> if e = epoch && k = key && fl land f_win <> 0 then acc + 1 else acc)
      0 rows
  in
  let ok_counts =
    match workload with
    | One_shot | Solo_fast ->
        (* exactly one winner per key per epoch (solo: first proposer
           wins, later ones observe the decided value and lose) *)
        List.for_all
          (fun (e, k) -> wins_at e k = 1)
          [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    | Speculative | Strict_tas | Hardware | Ttas_lock | Chain ->
        (* solo ops always win their round / commit their write *)
        List.for_all (fun (_, _, _, fl) -> fl land f_win <> 0) rows
  in
  total = 2 * n * ops_per_proc && aborts = 0 && ok_counts
