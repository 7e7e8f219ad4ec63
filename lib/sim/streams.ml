let run ~streams ~runs f =
  if streams < 1 then invalid_arg "Streams.run: streams < 1";
  let base = runs / streams and rem = runs mod streams in
  let slots = Array.make streams None in
  (* [streams] fixes the split; the OS domains spawned are capped at the
     runtime's recommendation, because oversubscribed domains stall each
     other at every minor-GC barrier *)
  let workers = min streams (max 1 (Domain.recommended_domain_count ())) in
  let run_from w () =
    let d = ref w in
    while !d < streams do
      let lo = (!d * base) + min !d rem in
      slots.(!d) <- Some (f !d ~lo ~hi:(lo + base + if !d < rem then 1 else 0));
      d := !d + workers
    done
  in
  let handles = Array.init (workers - 1) (fun i -> Domain.spawn (run_from (i + 1))) in
  run_from 0 ();
  Array.iter Domain.join handles;
  Array.map Option.get slots
