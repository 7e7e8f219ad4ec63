open Scs_util

(* Policies return a pid, or -1 to stop, and consult the runnable set
   through the simulator's bitmask — no per-turn list or boxed
   allocation. Each randomized policy's Rng draws (order and quantity)
   are pinned by test_policy.ml, which is what keeps fuzz seeds and
   recorded schedules stable. *)

type t = Sim.t -> int

exception Replay_drift of int

let stop = -1

let round_robin () =
  let last = ref (-1) in
  fun sim ->
    let n = Sim.n sim in
    let rec find k =
      if k > n then stop
      else begin
        let cand = (!last + k) mod n in
        if Sim.is_runnable sim cand then begin
          last := cand;
          cand
        end
        else find (k + 1)
      end
    in
    find 1

let random rng sim =
  let c = Sim.runnable_count sim in
  if c = 0 then stop else Sim.nth_runnable sim (Rng.int rng c)

let weighted rng weights sim =
  (* Qualifying pids (runnable, positive weight) in ascending order; the
     total is summed in that order (float addition is order-sensitive),
     one [Rng.float] draw is taken iff some pid qualifies, and the last
     qualifying pid is the fallback. *)
  let nw = Array.length weights in
  let bits = Sim.runnable_bits sim in
  let total = ref 0.0 and count = ref 0 and last = ref (-1) in
  let b = ref bits and p = ref 0 in
  while !b <> 0 do
    if !b land 1 = 1 && !p < nw && weights.(!p) > 0.0 then begin
      total := !total +. weights.(!p);
      incr count;
      last := !p
    end;
    b := !b lsr 1;
    incr p
  done;
  if !count = 0 then stop
  else begin
    let x = Rng.float rng *. !total in
    let chosen = ref (-1) in
    let acc = ref 0.0 and b = ref bits and p = ref 0 in
    while !chosen < 0 do
      if !b land 1 = 1 && !p < nw && weights.(!p) > 0.0 then
        if !p = !last then chosen := !p
        else begin
          acc := !acc +. weights.(!p);
          if x < !acc then chosen := !p
        end;
      b := !b lsr 1;
      incr p
    done;
    !chosen
  end

let sticky rng ~switch_prob =
  let current = ref (-1) in
  fun sim ->
    let cur = !current in
    if cur >= 0 && Sim.is_runnable sim cur && not (Rng.bernoulli rng switch_prob) then cur
    else begin
      let c = Sim.runnable_count sim in
      if c = 0 then stop
      else begin
        let p = Sim.nth_runnable sim (Rng.int rng c) in
        current := p;
        p
      end
    end

(* PCT (probabilistic concurrency testing, Burckhardt et al., ASPLOS'10):
   distinct random priorities, always run the highest-priority runnable
   process, and at [k - 1] turn indices drawn uniformly from [1, depth]
   demote the process about to run below every other priority. Bugs that
   need few preemptions are found with probability >= 1/(n * depth^(k-1)),
   independent of how rare they are under uniform random scheduling. *)
let pct rng ~k ~depth =
  let prio = ref [||] in
  let change_at = ref [] in
  let turn = ref 0 in
  fun sim ->
    if Array.length !prio = 0 then begin
      let n = Sim.n sim in
      let a = Array.init n (fun i -> i + 1) in
      Rng.shuffle rng a;
      prio := a;
      change_at := List.init (max 0 (k - 1)) (fun _ -> 1 + Rng.int rng (max 1 depth))
    end;
    let bits = Sim.runnable_bits sim in
    if bits = 0 then stop
    else begin
      incr turn;
      let prio = !prio in
      (* first maximum in ascending pid order *)
      let best = ref (-1) and b = ref bits and p = ref 0 in
      while !b <> 0 do
        if !b land 1 = 1 && (!best < 0 || prio.(!p) > prio.(!best)) then best := !p;
        b := !b lsr 1;
        incr p
      done;
      (* demotion below every initial priority; later demotions go lower
         still, so demoted processes keep their relative order *)
      if List.mem !turn !change_at then prio.(!best) <- - !turn;
      !best
    end

let solo pid sim = if Sim.is_runnable sim pid then pid else stop

let sequential () =
 fun sim ->
  let bits = Sim.runnable_bits sim in
  if bits = 0 then stop
  else begin
    (* index of the lowest set bit *)
    let b = ref bits and p = ref 0 in
    while !b land 1 = 0 do
      b := !b lsr 1;
      incr p
    done;
    !p
  end

let scripted_then ?(strict = false) script fallback =
  let i = ref 0 in
  fun sim ->
    let rec go () =
      if !i >= Array.length script then fallback sim
      else begin
        let p = script.(!i) in
        incr i;
        if Sim.is_runnable sim p then p
        else if strict then raise (Replay_drift p)
        else go ()
      end
    in
    go ()

let scripted ?strict script = scripted_then ?strict script (fun _ -> stop)
let stop_when pred inner sim = if pred sim then stop else inner sim
