open Scs_util

exception Violation of string
exception Skip of string

type sched_kind = Uniform | Sticky of float | Weighted | Pct of int

type policy_spec = { kind : sched_kind; crash_faults : bool; crash_recover : bool }

let spec_name { kind; crash_faults; crash_recover } =
  let base =
    match kind with
    | Uniform -> "uniform"
    | Sticky p -> Printf.sprintf "sticky(%.2f)" p
    | Weighted -> "weighted"
    | Pct k -> Printf.sprintf "pct(%d)" k
  in
  if crash_recover then base ^ "+crashrec" else if crash_faults then base ^ "+crash" else base

let default_portfolio =
  [
    { kind = Uniform; crash_faults = false; crash_recover = false };
    { kind = Sticky 0.25; crash_faults = false; crash_recover = false };
    { kind = Weighted; crash_faults = false; crash_recover = false };
    { kind = Pct 3; crash_faults = false; crash_recover = false };
    { kind = Uniform; crash_faults = true; crash_recover = false };
  ]

let recover_portfolio =
  [
    { kind = Uniform; crash_faults = true; crash_recover = true };
    { kind = Sticky 0.25; crash_faults = true; crash_recover = true };
    { kind = Pct 3; crash_faults = true; crash_recover = true };
  ]

let portfolio_names =
  [ "default"; "all"; "uniform"; "sticky"; "weighted"; "pct"; "crash"; "crash-recover" ]

let portfolio_of_string = function
  | "default" | "all" -> Some default_portfolio
  | "uniform" -> Some [ { kind = Uniform; crash_faults = false; crash_recover = false } ]
  | "sticky" -> Some [ { kind = Sticky 0.25; crash_faults = false; crash_recover = false } ]
  | "weighted" -> Some [ { kind = Weighted; crash_faults = false; crash_recover = false } ]
  | "pct" -> Some [ { kind = Pct 3; crash_faults = false; crash_recover = false } ]
  | "crash" -> Some [ { kind = Uniform; crash_faults = true; crash_recover = false } ]
  | "crash-recover" -> Some recover_portfolio
  | _ -> None

type violation = {
  v_workload : string;
  v_n : int;
  v_policy : string;
  v_seed : int;
  v_schedule : int array;
  v_crashes : Crash.t list;
  v_error : string;
}

type policy_stats = {
  s_policy : string;
  s_runs : int;
  s_turns : int;
  s_violations : int;
  s_skipped : int;
  s_checked_large : int;
  s_check_wall : float;
  s_gen_wall : float;
      (** wall-clock spent generating schedules (the loop minus its
          checks); critical path (max) across gen streams *)
  s_wall : float;
  s_first_failure : (int * float) option;
      (** run index and wall-clock seconds of the first violation *)
  s_step_p50 : float;
  s_step_p99 : float;  (** percentiles of per-run total memory steps *)
  s_max_contention : int;
      (** max schedule-level step contention across the batch's runs *)
}

type report = {
  r_workload : string;
  r_n : int;
  r_seed : int;
  r_stats : policy_stats list;
  r_violations : violation list;
}

let schedules_per_sec s = if s.s_wall > 0.0 then float_of_int s.s_runs /. s.s_wall else 0.0
let gen_per_sec s = if s.s_gen_wall > 0.0 then float_of_int s.s_runs /. s.s_gen_wall else 0.0

let check_per_sec s =
  if s.s_check_wall > 0.0 then float_of_int s.s_runs /. s.s_check_wall else 0.0

(* Schedule-level step-contention of one run: for each process, the
   number of turns taken by *other* processes between its first and
   last captured turns; the run's statistic is the max over processes.
   Computed from the captured pid schedule alone, so it costs nothing
   on the simulator's hot path. Each captured turn executes at most
   one memory step, so this upper-bounds the step contention (paper
   §2) any single operation in the run can experience. *)
(* Scratch-array version: the caller owns [first]/[last]/[count]
   (length n), reused across runs so the per-run cost is O(turns) with
   no allocation. *)
let schedule_contention_into ~n ~first ~last ~count (buf : int Vec.t) =
  Array.fill first 0 n (-1);
  Array.fill last 0 n (-1);
  Array.fill count 0 n 0;
  Vec.iteri
    (fun i p ->
      if p >= 0 && p < n then begin
        if first.(p) < 0 then first.(p) <- i;
        last.(p) <- i;
        count.(p) <- count.(p) + 1
      end)
    buf;
  let m = ref 0 in
  for p = 0 to n - 1 do
    if count.(p) > 0 then begin
      let others = last.(p) - first.(p) + 1 - count.(p) in
      if others > !m then m := others
    end
  done;
  !m

let base_policy kind rng n =
  match kind with
  | Uniform -> Policy.random rng
  | Sticky p -> Policy.sticky rng ~switch_prob:p
  | Weighted ->
      (* fresh skewed positive weights per run: biased schedulers reach
         interleavings uniform sampling essentially never produces *)
      let w = Array.init n (fun _ -> float_of_int (1 lsl Rng.int rng 5)) in
      Policy.weighted rng w
  | Pct k -> Policy.pct rng ~k ~depth:(16 * n)

(* Crash events for one run. With [recover = false] the Rng draws are
   one bernoulli per pid plus one int per victim (none at [prob] 0), the
   stream fail-stop portfolios and [scs stats --crash-prob] seeds are
   pinned to. With [recover = true] each victim usually (3/4) gets a
   recovery delay of 0..7 further global steps, and sometimes (1/4) a
   second crash event landing on the recovered incarnation — the
   recover-during-contention interleavings the crash-recovery model is
   about. *)
let gen_crash_events ~prob ~recover rng n max_crash_steps =
  List.concat_map
    (fun p ->
      if prob <= 0.0 || not (Rng.bernoulli rng prob) then []
      else begin
        let at = 1 + Rng.int rng max_crash_steps in
        if not recover then [ Crash.terminal ~pid:p ~at ]
        else if Rng.bernoulli rng 0.75 then begin
          let first = Crash.recovering ~pid:p ~at ~after:(Rng.int rng 8) in
          if Rng.bernoulli rng 0.25 then begin
            let at2 = at + 1 + Rng.int rng max_crash_steps in
            let second =
              if Rng.bernoulli rng 0.5 then Crash.recovering ~pid:p ~at:at2 ~after:(Rng.int rng 8)
              else Crash.terminal ~pid:p ~at:at2
            in
            [ first; second ]
          end
          else [ first ]
        end
        else [ Crash.terminal ~pid:p ~at ]
      end)
    (List.init n (fun p -> p))

(* Replay a captured [(schedule, crashes)] pair against a fresh simulator.
   Strict scripting: any divergence from the recorded schedule raises
   [Policy.Replay_drift] instead of silently executing a different run.
   Crashes fire exactly as in the fuzz loop (on [Sim.steps_of], which
   evolves identically for identical executed turn prefixes; recovery
   re-admission is clock-driven and therefore equally deterministic). *)
let replay ?max_steps ~n ~setup ~schedule ~crashes () =
  let sim = Sim.create ?max_steps ~n () in
  setup sim;
  Sim.run ~crashes sim (Policy.scripted ~strict:true schedule);
  sim

let now = Unix.gettimeofday

(* Histories of more than [large_history] operations were skipped before
   the scalable checker existed (the seed checker's 62-operation cap);
   workload checks report them here so fuzz stats can show that such
   runs are verified. A global atomic (snapshotted around each policy
   batch, whose streams are joined before the snapshot is read) stays
   correct when checks run on gen domains. *)
let large_history = 62
let large_counter = Atomic.make 0
let checked_large () = Atomic.incr large_counter
let checked_large_total () = Atomic.get large_counter

(* Result of generating one contiguous range of runs on one stream. *)
type partial = {
  mutable p_runs : int;
  mutable p_turns : int;
  mutable p_viol : (int * violation) list;  (* (global run index, v), newest first *)
  mutable p_skipped : int;
  mutable p_check_wall : float;
  mutable p_wall : float;
  mutable p_first : (int * float) option;
  p_steps : float Vec.t;
  mutable p_max_cont : int;
  p_obs : Scs_obs.Obs.t;  (* this stream's sink (the shared one when gen_domains = 1) *)
}

let run ?(policies = default_portfolio) ?(runs = 1000) ?time_budget
    ?(max_violations = max_int) ?(seed = 1) ?max_steps ?(max_crash_steps = 15)
    ?(gen_domains = 1) ?(obs = Scs_obs.Obs.null) ~workload ~n ~instantiate () =
  let gen_domains = max 1 gen_domains in
  let per_policy_viols = ref [] in
  (* reverse policy order *)
  let stats =
    List.mapi
      (fun idx spec ->
        let name = spec_name spec in
        let t0 = now () in
        let large0 = checked_large_total () in
        (* shared across this policy's streams: early stop on the
           violation budget *)
        let viol_count = Atomic.make 0 in
        (* Generate and check runs [lo, hi) (global indices) of one
           stream. Stream 0's seed stream is the sequential one, so
           [gen_domains = 1] reproduces it run for run. *)
        let run_range stream ~lo ~hi =
          let prng = Rng.create (seed + (0x9E3779B9 * (idx + 1)) + (0x51ED270B * stream)) in
          let dobs =
            if gen_domains <= 1 || not (Scs_obs.Obs.enabled obs) then obs
            else Scs_obs.Obs.create ~ring_capacity:(Scs_obs.Obs.ring_capacity obs) ~n ()
          in
          let part =
            {
              p_runs = 0;
              p_turns = 0;
              p_viol = [];
              p_skipped = 0;
              p_check_wall = 0.0;
              p_wall = 0.0;
              p_first = None;
              p_steps = Vec.create ();
              p_max_cont = 0;
              p_obs = dobs;
            }
          in
          (* one simulator per stream, rewound with [Sim.clear] before
             each reuse *)
          let sim = Sim.create ?max_steps ~obs:dobs ~n () in
          let buf : int Vec.t = Vec.create () in
          let sc_first = Array.make n 0 and sc_last = Array.make n 0 in
          let sc_count = Array.make n 0 in
          let record_violation gidx run_seed crashes msg =
            Atomic.incr viol_count;
            if part.p_first = None then part.p_first <- Some (gidx, now () -. t0);
            part.p_viol <-
              ( gidx,
                {
                  v_workload = workload;
                  v_n = n;
                  v_policy = name;
                  v_seed = run_seed;
                  v_schedule = Vec.to_array buf;
                  v_crashes = crashes;
                  v_error = msg;
                } )
              :: part.p_viol
          in
          let keep_going () =
            lo + part.p_runs < hi
            && Atomic.get viol_count < max_violations
            && match time_budget with None -> true | Some b -> now () -. t0 < b
          in
          while keep_going () do
            let gidx = lo + part.p_runs in
            let run_seed = Rng.int prng 0x3FFFFFFF in
            let rng = Rng.create run_seed in
            let setup, check = instantiate () in
            if part.p_runs > 0 then Sim.clear sim;
            setup sim;
            let crashes =
              if spec.crash_faults then
                gen_crash_events ~prob:0.25 ~recover:spec.crash_recover rng n max_crash_steps
              else []
            in
            Vec.clear buf;
            let ok =
              try
                Sim.run ~capture:buf ~crashes sim (base_policy spec.kind rng n);
                true
              with
              | Violation msg ->
                  (* a check raised from inside a process fiber *)
                  record_violation gidx run_seed crashes msg;
                  false
              | Skip _ | Sim.Livelock _ ->
                  part.p_skipped <- part.p_skipped + 1;
                  false
            in
            Vec.push part.p_steps (float_of_int (Sim.total_steps sim));
            let c = schedule_contention_into ~n ~first:sc_first ~last:sc_last ~count:sc_count buf in
            if c > part.p_max_cont then part.p_max_cont <- c;
            part.p_turns <- part.p_turns + Vec.length buf;
            if ok then begin
              let tc = now () in
              (match check sim with
              | () -> ()
              | exception Violation msg -> record_violation gidx run_seed crashes msg
              | exception (Skip _ | Sim.Livelock _) -> part.p_skipped <- part.p_skipped + 1);
              part.p_check_wall <- part.p_check_wall +. (now () -. tc)
            end;
            part.p_runs <- part.p_runs + 1
          done;
          part.p_wall <- now () -. t0;
          part
        in
        let parts = Streams.run ~streams:gen_domains ~runs run_range in
        (* deterministic merge: stream order for obs sinks, global run
           order for violations and first-failure *)
        if gen_domains > 1 && Scs_obs.Obs.enabled obs then
          Array.iter (fun p -> Scs_obs.Obs.merge_into ~into:obs p.p_obs) parts;
        let viols =
          Array.to_list parts
          |> List.concat_map (fun p -> List.rev p.p_viol)
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> List.map snd
        in
        per_policy_viols := viols :: !per_policy_viols;
        let first =
          Array.fold_left
            (fun acc p ->
              match (acc, p.p_first) with
              | None, f | f, None -> f
              | Some (r1, w1), Some (r2, _) when r1 <= r2 -> Some (r1, w1)
              | _, f -> f)
            None parts
        in
        let steps_arr =
          Array.concat (Array.to_list (Array.map (fun p -> Vec.to_array p.p_steps) parts))
        in
        let pct p = if Array.length steps_arr = 0 then 0.0 else Stats.percentile steps_arr p in
        let sum f = Array.fold_left (fun acc p -> acc + f p) 0 parts in
        let sumf f = Array.fold_left (fun acc p -> acc +. f p) 0.0 parts in
        let maxi f = Array.fold_left (fun acc p -> max acc (f p)) 0 parts in
        {
          s_policy = name;
          s_runs = sum (fun p -> p.p_runs);
          s_turns = sum (fun p -> p.p_turns);
          s_violations = sum (fun p -> List.length p.p_viol);
          s_skipped = sum (fun p -> p.p_skipped);
          s_checked_large = checked_large_total () - large0;
          s_check_wall = sumf (fun p -> p.p_check_wall);
          s_gen_wall =
            Array.fold_left (fun acc p -> Float.max acc (p.p_wall -. p.p_check_wall)) 0.0 parts;
          s_wall = now () -. t0;
          s_first_failure = first;
          s_step_p50 = pct 50.0;
          s_step_p99 = pct 99.0;
          s_max_contention = maxi (fun p -> p.p_max_cont);
        })
      policies
  in
  {
    r_workload = workload;
    r_n = n;
    r_seed = seed;
    r_stats = stats;
    r_violations = List.concat (List.rev !per_policy_viols);
  }

(* {1 Repro artifacts} *)

module Repro = struct
  type t = {
    workload : string;
    n : int;
    seed : int;
    policy : string;
    error : string;
    crashes : Crash.t list;
    schedule : int array;
  }

  let of_violation (v : violation) =
    {
      workload = v.v_workload;
      n = v.v_n;
      seed = v.v_seed;
      policy = v.v_policy;
      error = v.v_error;
      crashes = v.v_crashes;
      schedule = v.v_schedule;
    }

  let to_string r =
    let b = Buffer.create 256 in
    Buffer.add_string b "scsrepro 1\n";
    Printf.bprintf b "workload %s\n" r.workload;
    Printf.bprintf b "n %d\n" r.n;
    Printf.bprintf b "seed %d\n" r.seed;
    Printf.bprintf b "policy %s\n" r.policy;
    Printf.bprintf b "error %s\n" r.error;
    Printf.bprintf b "crashes %s\n" (Crash.list_to_string r.crashes);
    Printf.bprintf b "schedule %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int r.schedule)));
    Buffer.contents b

  let fail fmt = Printf.ksprintf (fun s -> failwith ("Repro.of_string: " ^ s)) fmt

  let of_string s =
    let lines =
      String.split_on_char '\n' s
      |> List.filter (fun l -> String.trim l <> "")
    in
    let field name line =
      let prefix = name ^ " " in
      let pl = String.length prefix in
      if String.length line >= pl && String.sub line 0 pl = prefix then
        String.sub line pl (String.length line - pl)
      else fail "expected %S line, got %S" name line
    in
    match lines with
    | magic :: rest when String.trim magic = "scsrepro 1" -> (
        match rest with
        | [ lw; ln; ls; lp; le; lc; lsched ] ->
            let crashes =
              match Crash.list_of_string (field "crashes" lc) with
              | Some cs -> cs
              | None -> fail "bad crashes field %S" (field "crashes" lc)
            in
            let schedule =
              field "schedule" lsched |> String.split_on_char ' '
              |> List.filter (fun x -> x <> "")
              |> List.map int_of_string |> Array.of_list
            in
            {
              workload = field "workload" lw;
              n = int_of_string (field "n" ln);
              seed = int_of_string (field "seed" ls);
              policy = field "policy" lp;
              error = field "error" le;
              crashes;
              schedule;
            }
        | _ -> fail "expected 7 fields, got %d" (List.length rest))
    | l :: _ -> fail "bad magic %S" l
    | [] -> fail "empty input"

  let save path r =
    let oc = open_out path in
    output_string oc (to_string r);
    close_out oc

  let load path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    of_string s
end

(* {1 Lane rendering} *)

let render_lanes ?(title = "failing schedule") ~n ~schedule ~crashes () =
  let len = Array.length schedule in
  (* Walk process [p]'s lane, simulating how its crash events fired
     against the captured schedule. A crash event [at = k] fires once
     [p] has executed [k] memory steps; [p]'s first captured turn after
     a (re)start only advances it to its first operation (no memory
     step), so the step count lags its turn count by one per
     incarnation. A firing crash marks [X] on the next cell (the
     scheduler decision at which the crash policy retired the process,
     [len] = appended past the end if the run ended there); a recovering
     crash additionally marks [R] on [p]'s first captured turn after the
     crash — the re-admitted recovery code's first turn. Returns the
     fired count and the overlay list [(cell, char)]. *)
  let walk p =
    let events = List.filter (fun (c : Crash.t) -> c.pid = p) (Crash.canonical crashes) in
    let marks = ref [] in
    let fired = ref 0 in
    let steps = ref 0 in
    let fresh = ref true in
    (* [p] has a turn coming that advances to its first op, no step *)
    let crashed = ref false in
    let recovering = ref false in
    let pending = ref events in
    for i = 0 to len do
      (* decision point before cell [i] ([i = len]: after the last turn) *)
      (match !pending with
      | (c : Crash.t) :: rest when (not !crashed) && !steps >= c.at ->
          marks := (i, 'X') :: !marks;
          incr fired;
          crashed := true;
          recovering := c.recover <> None;
          pending := rest
      | _ -> ());
      if i < len && schedule.(i) = p then
        if !crashed then begin
          if !recovering then begin
            (* first turn of the re-admitted recovery fiber *)
            marks := (i, 'R') :: !marks;
            crashed := false;
            recovering := false;
            fresh := false
            (* the R turn is the no-step advance turn *)
          end
        end
        else if !fresh then fresh := false
        else incr steps
    done;
    (!fired, List.rev !marks)
  in
  (* ASCII only: Table pads cells by byte length *)
  let lane p marks =
    let base = Bytes.init len (fun i -> if schedule.(i) = p then '#' else '.') in
    let extra = ref "" in
    List.iter
      (fun (i, ch) -> if i < len then Bytes.set base i ch else extra := !extra ^ String.make 1 ch)
      marks;
    Bytes.to_string base ^ !extra
  in
  let rows =
    List.init n (fun p ->
        let fired, marks = walk p in
        let events = List.filter (fun (c : Crash.t) -> c.pid = p) (Crash.canonical crashes) in
        let label =
          String.concat ""
            (List.mapi
               (fun j (c : Crash.t) ->
                 Printf.sprintf " crash@%s%s"
                   (match c.recover with
                   | None -> string_of_int c.at
                   | Some d -> Printf.sprintf "%d+%d" c.at d)
                   (if j >= fired then " (unfired)" else ""))
               events)
        in
        [ Printf.sprintf "p%d%s" p label; lane p marks ])
  in
  let ruler =
    String.concat ""
      (List.init len (fun i -> if (i + 1) mod 10 = 0 then "|" else if (i + 1) mod 5 = 0 then "+" else " "))
  in
  Table.render ~title
    ~header:[ "proc"; Printf.sprintf "turn 1..%d" len ]
    (rows @ [ [ "(x10)"; ruler ] ])
