(* Built at module initialisation, not on first use: a [Lazy.t] forced
   by two domains at once raises [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

(* One call per character of a streamed text: the index is masked to
   0..255, so the table lookup needs no bounds check. *)
let add_char crc ch =
  let c = crc lxor 0xffffffff in
  Array.unsafe_get table ((c lxor Char.code ch) land 0xff)
  lxor (c lsr 8) lxor 0xffffffff

let string s = update 0 s ~pos:0 ~len:(String.length s)

let to_hex crc = Printf.sprintf "%08x" (crc land 0xffffffff)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some n when n >= 0 && n <= 0xffffffff -> Some n
    | Some _ | None -> None
