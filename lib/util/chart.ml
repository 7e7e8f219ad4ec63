let bar ~width ~max_value v =
  let cells =
    if max_value <= 0.0 then 0
    else begin
      let scaled = v /. max_value *. float_of_int width in
      let c = int_of_float (Float.round scaled) in
      if c > width then width else if c < 0 then 0 else c
    end
  in
  String.make cells '#' ^ String.make (width - cells) ' '

let series ?(width = 40) ~title () points =
  let buf = Buffer.create 256 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let max_value = List.fold_left (fun m (_, v) -> Float.max m v) 0.0 points in
  let label_w = List.fold_left (fun m (l, _) -> max m (String.length l)) 0 points in
  List.iter
    (fun (label, v) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s| %.2f\n" label_w label (bar ~width ~max_value v) v))
    points;
  Buffer.contents buf
