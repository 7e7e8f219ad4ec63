type align = Left | Right

let pad align width s =
  let len = String.length s in
  if len >= width then s
  else begin
    let fill = String.make (width - len) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let default_aligns ncols = List.init ncols (fun i -> if i = 0 then Left else Right)

let render ?title ?aligns ~header rows =
  let ncols = List.length header in
  let aligns = match aligns with Some a -> a | None -> default_aligns ncols in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  let emit_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let a = try List.nth aligns i with _ -> Right in
          pad a widths.(i) cell)
        row
    in
    Buffer.add_string buf (String.concat "  " cells);
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let sep = List.init ncols (fun i -> String.make widths.(i) '-') in
  emit_row sep;
  List.iter emit_row rows;
  Buffer.contents buf

let print ?title ?aligns ~header rows = print_string (render ?title ?aligns ~header rows)

let fmt_int n = string_of_int n
